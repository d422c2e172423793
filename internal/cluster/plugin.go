package cluster

import (
	"errors"
	"fmt"
	"sort"

	"vprobe/internal/mem"
	"vprobe/internal/numa"
)

// HostView is an immutable snapshot of one host's placement-relevant
// state. Plugins see only views, never hosts, so a placement decision is a
// pure function of (spec, views) — which is what keeps cluster runs
// byte-identical at any worker count.
type HostView struct {
	Index int
	Name  string

	Nodes int
	CPUs  int

	// FreePerNodeMB is free machine memory per NUMA node (FreeMB sums it);
	// TotalMB is the host's installed capacity.
	FreePerNodeMB []int64
	TotalMB       int64

	// GuestVCPUs counts VCPUs of live domains; VCPUCap is the overcommit
	// ceiling.
	GuestVCPUs int
	VCPUCap    int

	// VMs is the live VM count.
	VMs int

	// LLCPressure is the per-socket average of the active VCPUs' LLC
	// reference intensity (RPTI).
	LLCPressure float64
}

// FreeMB is the host-wide free memory: the sum of FreePerNodeMB.
//
//vprobe:hotpath
func (hv *HostView) FreeMB() int64 {
	var free int64
	for _, f := range hv.FreePerNodeMB {
		free += f
	}
	return free
}

// bestNode returns the node with the most free memory (ties toward the
// lowest id) and that node's free MB.
//
//vprobe:hotpath
func (hv *HostView) bestNode() (numa.NodeID, int64) {
	best, bestFree := numa.NoNode, int64(-1)
	for n, free := range hv.FreePerNodeMB {
		if free > bestFree {
			best, bestFree = numa.NodeID(n), free
		}
	}
	return best, bestFree
}

// whatIf returns a copy of the view whose FreePerNodeMB the caller owns:
// the what-if host a planner charges admissions to and releases
// departures into, leaving the cached view alone.
func (hv *HostView) whatIf() HostView {
	w := *hv
	w.FreePerNodeMB = append([]int64(nil), hv.FreePerNodeMB...)
	return w
}

// admit charges spec to the view as admitting it under plan would: the
// allocator's own mem.Take deduction, its VCPUs, and one more VM.
func (hv *HostView) admit(spec *VMSpec, plan MemPlan) {
	mem.Take(hv.FreePerNodeMB, spec.MemoryMB, plan.Policy, plan.Preferred)
	hv.GuestVCPUs += spec.VCPUs
	hv.VMs++
}

// release hands a resident's domain back to the view: per node the MB
// the allocator's Release would return, its VCPUs, and one fewer VM.
func (hv *HostView) release(vm *VM) {
	for n := range hv.FreePerNodeMB {
		hv.FreePerNodeMB[n] += vm.dom.MemDist.ReleasedMB(n, vm.dom.MemoryMB)
	}
	hv.GuestVCPUs -= vm.Spec.VCPUs
	hv.VMs--
}

// FilterPlugin vetoes hosts that cannot take the VM. A nil error admits
// the host to scoring; the error explains the veto (surfaced when every
// host filters out).
type FilterPlugin interface {
	Name() string
	Filter(spec *VMSpec, host *HostView) error
}

// ScorePlugin ranks a host that passed all filters. Scores are on [0,
// 100]; the pipeline sums weighted scores and places on the maximum.
type ScorePlugin interface {
	Name() string
	Score(spec *VMSpec, host *HostView) float64
}

// WeightedScore pairs a score plugin with its weight in the sum.
type WeightedScore struct {
	Plugin ScorePlugin
	Weight float64
}

// MemPlan is a policy's memory-placement choice for an admitted VM: the
// allocation policy passed to the host's allocator and the preferred node
// for mem.PolicyLocal.
type MemPlan struct {
	Policy    mem.Policy
	Preferred numa.NodeID
}

// Pipeline is a kube-style two-phase placement policy: Filter plugins veto
// hosts, Score plugins rank the survivors, and MemPlan chooses how the
// winner lays the VM's memory out. Ties break toward the lowest host
// index.
type Pipeline struct {
	Name    string
	Filters []FilterPlugin
	Scorers []WeightedScore
	// MemPlan maps the winning (spec, view) to a memory layout. When nil
	// the pipeline defaults to striping across nodes.
	MemPlan func(spec *VMSpec, host *HostView) MemPlan

	// Place's scratch, reused across calls per the caller-owned-scratch
	// convention (a Pipeline serves one cluster, whose events are
	// serial). Without it every placement pass rebuilt both slices.
	vetoScratch     []veto
	feasibleScratch []*HostView
}

// veto records one filter rejection for the every-host-filtered error.
type veto struct {
	host, plugin, reason string
}

// ErrNoHostFits is wrapped into Place's error when every host filters out.
var ErrNoHostFits = errors.New("cluster: no host fits")

// fits reports whether every filter admits spec on hv: Place's filter
// phase as one boolean, for the score cache and the control-plane
// planners, which need the verdict but not the veto reason.
func (pl *Pipeline) fits(spec *VMSpec, hv *HostView) bool {
	for _, f := range pl.Filters {
		if f.Filter(spec, hv) != nil {
			return false
		}
	}
	return true
}

// Place runs the two phases over the views and returns the winning view
// and the memory plan for it.
func (pl *Pipeline) Place(spec *VMSpec, views []*HostView) (*HostView, MemPlan, error) {
	vetoes := pl.vetoScratch[:0]
	feasible := pl.feasibleScratch[:0]
	for _, hv := range views {
		admitted := true
		for _, f := range pl.Filters {
			if err := f.Filter(spec, hv); err != nil {
				//vet:alloc veto capture grows the reused scratch at most once per fleet size; the incremental fast path never reaches Place
				vetoes = append(vetoes, veto{hv.Name, f.Name(), err.Error()})
				admitted = false
				break
			}
		}
		if admitted {
			//vet:alloc grows the reused scratch at most once per fleet size
			feasible = append(feasible, hv)
		}
	}
	// Hand the (possibly grown) backing arrays back before any return.
	pl.vetoScratch = vetoes[:0]
	pl.feasibleScratch = feasible[:0]
	if len(feasible) == 0 {
		//vet:alloc the every-host-vetoed error renders once per failed generic placement; the incremental path returns bare ErrNoHostFits instead
		reasons := make([]string, 0, len(vetoes))
		for _, v := range vetoes {
			//vet:alloc failure-path rendering only
			reasons = append(reasons, fmt.Sprintf("%s: %s: %s", v.host, v.plugin, v.reason))
		}
		sort.Strings(reasons)
		// Cap the rendered reasons: on big clusters an every-host veto
		// would otherwise put hundreds of lines into one error string.
		// Sorting first keeps the surviving prefix deterministic.
		const maxReasons = 8
		if extra := len(reasons) - maxReasons; extra > 0 {
			//vet:alloc failure-path rendering only
			reasons = append(reasons[:maxReasons], fmt.Sprintf("… and %d more", extra))
		}
		//vet:alloc failure-path rendering only
		return nil, MemPlan{}, fmt.Errorf("%w for %s (%d MB, %d vcpus): %v",
			ErrNoHostFits, spec.Name, spec.MemoryMB, spec.VCPUs, reasons)
	}

	var best *HostView
	var bestScore float64
	for _, hv := range feasible {
		var score float64
		for _, ws := range pl.Scorers {
			score += ws.Weight * ws.Plugin.Score(spec, hv)
		}
		if best == nil || score > bestScore ||
			(score == bestScore && hv.Index < best.Index) {
			best, bestScore = hv, score
		}
	}
	plan := MemPlan{Policy: mem.PolicyStripe}
	if pl.MemPlan != nil {
		plan = pl.MemPlan(spec, best)
	}
	return best, plan, nil
}

// PluginVeto is one host a filter plugin excluded, with its reason.
type PluginVeto struct {
	Host   string
	Reason string
}

// FilterReport is one filter plugin's verdict over the candidate set.
// Vetoes lists only the hosts this plugin excluded (a host vetoed by an
// earlier plugin is never shown to later ones, mirroring Place's
// first-veto-wins loop).
type FilterReport struct {
	Plugin   string
	Admitted int
	Vetoes   []PluginVeto
}

// ScoreReport is one score plugin's contribution to a candidate's total.
type ScoreReport struct {
	Plugin   string
	Weight   float64
	Raw      float64
	Weighted float64
}

// CandidateReport is one feasible host's full scoring breakdown.
type CandidateReport struct {
	Host   string
	Index  int
	Total  float64
	Scores []ScoreReport
}

// Explanation is the complete provenance of one placement decision:
// every filter's verdict and the top-scoring candidates with per-plugin
// breakdowns. Candidates[0] is the winner when Feasible > 0.
type Explanation struct {
	Feasible   int
	Filters    []FilterReport
	Candidates []CandidateReport // sorted by (Total desc, Index asc), capped at topN
}

// Explain recomputes the decision Place (and the incremental score cache,
// which -place-check proves equivalent) makes over views, reporting the
// full per-plugin breakdown. It mirrors Place exactly — same first-veto
// filter loop, same weighted sum, same lowest-index tie-break — so
// Candidates[0].Host is the host Place returns. Explain allocates freely:
// it runs once per recorded decision on the provenance path, never on the
// placement hot path.
func (pl *Pipeline) Explain(spec *VMSpec, views []*HostView, topN int) Explanation {
	ex := Explanation{}
	filters := make([]FilterReport, len(pl.Filters))
	for i, f := range pl.Filters {
		filters[i].Plugin = f.Name()
	}
	var feasible []*HostView
	for _, hv := range views {
		admitted := true
		for i, f := range pl.Filters {
			if err := f.Filter(spec, hv); err != nil {
				filters[i].Vetoes = append(filters[i].Vetoes, PluginVeto{hv.Name, err.Error()})
				admitted = false
				break
			}
			filters[i].Admitted++
		}
		if admitted {
			feasible = append(feasible, hv)
		}
	}
	ex.Feasible = len(feasible)
	for _, hv := range feasible {
		cand := CandidateReport{Host: hv.Name, Index: hv.Index,
			Scores: make([]ScoreReport, len(pl.Scorers))}
		for i, ws := range pl.Scorers {
			raw := ws.Plugin.Score(spec, hv)
			cand.Scores[i] = ScoreReport{Plugin: ws.Plugin.Name(), Weight: ws.Weight,
				Raw: raw, Weighted: ws.Weight * raw}
			cand.Total += ws.Weight * raw
		}
		ex.Candidates = append(ex.Candidates, cand)
	}
	sort.SliceStable(ex.Candidates, func(i, j int) bool {
		if ex.Candidates[i].Total != ex.Candidates[j].Total {
			return ex.Candidates[i].Total > ex.Candidates[j].Total
		}
		return ex.Candidates[i].Index < ex.Candidates[j].Index
	})
	if topN > 0 && len(ex.Candidates) > topN {
		ex.Candidates = ex.Candidates[:topN]
	}
	ex.Filters = filters
	return ex
}

// ---- Built-in filter plugins ----

// CapacityFilter is the baseline admission check: the VM's memory must fit
// in the host's total free memory and its VCPUs under the overcommit cap.
type CapacityFilter struct{}

// Name implements FilterPlugin.
func (CapacityFilter) Name() string { return "capacity" }

// Filter implements FilterPlugin.
func (CapacityFilter) Filter(spec *VMSpec, hv *HostView) error {
	if free := hv.FreeMB(); spec.MemoryMB > free {
		//vet:alloc veto errors render only for infeasible hosts; the score cache stores the boolean, not the error
		return fmt.Errorf("needs %d MB, %d MB free", spec.MemoryMB, free)
	}
	if hv.GuestVCPUs+spec.VCPUs > hv.VCPUCap {
		//vet:alloc veto errors render only for infeasible hosts; the score cache stores the boolean, not the error
		return fmt.Errorf("needs %d vcpus, %d of %d committed",
			spec.VCPUs, hv.GuestVCPUs, hv.VCPUCap)
	}
	return nil
}

// NUMAFitFilter implements Gudkov-style available-space accounting: total
// free memory overstates what a NUMA host can give a VM, because a VM
// spread over many nodes pays remote latency for most of its accesses. The
// filter admits a host only if the VM fits within the MaxSplit largest
// per-node free chunks — the available space for a VM that tolerates
// spanning at most MaxSplit virtual NUMA nodes.
type NUMAFitFilter struct {
	// MaxSplit is the maximum number of nodes the VM may span (>= 1).
	MaxSplit int
}

// Name implements FilterPlugin.
func (f NUMAFitFilter) Name() string { return "numa-fit" }

// Filter implements FilterPlugin. It runs once per (pending VM, host)
// pair on every placement pass, which makes it the cluster layer's
// admission hot path.
//
//vprobe:hotpath
func (f NUMAFitFilter) Filter(spec *VMSpec, hv *HostView) error {
	split := f.MaxSplit
	if split < 1 {
		split = 1
	}
	avail := numa.AvailableMB(hv.FreePerNodeMB, split)
	if spec.MemoryMB > avail {
		//vet:alloc the veto error is an operator-facing diagnostic built once per rejection, not steady state
		return fmt.Errorf("needs %d MB within %d node(s), %d MB available",
			spec.MemoryMB, split, avail)
	}
	return nil
}

// ---- Built-in score plugins ----

// LeastLoadedScore prefers emptier hosts (spreading): the mean of the free
// memory fraction and the free VCPU-cap fraction, scaled to [0, 100].
type LeastLoadedScore struct{}

// Name implements ScorePlugin.
func (LeastLoadedScore) Name() string { return "least-loaded" }

// Score implements ScorePlugin.
func (LeastLoadedScore) Score(spec *VMSpec, hv *HostView) float64 {
	memFree := float64(hv.FreeMB()) / float64(hv.TotalMB)
	cpuFree := 1 - float64(hv.GuestVCPUs)/float64(hv.VCPUCap)
	if cpuFree < 0 {
		cpuFree = 0
	}
	return 50 * (memFree + cpuFree)
}

// PackScore is the inverse of LeastLoadedScore: prefer fuller hosts, so
// VMs consolidate and empty hosts stay empty.
type PackScore struct{}

// Name implements ScorePlugin.
func (PackScore) Name() string { return "pack" }

// Score implements ScorePlugin.
func (PackScore) Score(spec *VMSpec, hv *HostView) float64 {
	return 100 - (LeastLoadedScore{}).Score(spec, hv)
}

// NUMAFitScore prefers hosts where the VM's memory fits on a single node:
// single-node placements score 60 plus up to 40 for headroom; hosts that
// would force a split score by the fraction that stays on the best node.
type NUMAFitScore struct{}

// Name implements ScorePlugin.
func (NUMAFitScore) Name() string { return "numa-fit" }

// Score implements ScorePlugin. Like Filter, it runs per (VM, host) pair
// on the admission hot path.
//
//vprobe:hotpath
func (NUMAFitScore) Score(spec *VMSpec, hv *HostView) float64 {
	_, bestFree := hv.bestNode()
	if bestFree >= spec.MemoryMB {
		if bestFree == 0 {
			// A zero-memory spec "fits" a full node; without this guard
			// the headroom below is 0/0 and the score goes NaN, poisoning
			// every weighted sum it joins.
			return 60
		}
		headroom := float64(bestFree-spec.MemoryMB) / float64(bestFree)
		return 60 + 40*headroom
	}
	if spec.MemoryMB <= 0 {
		return 0
	}
	return 50 * float64(bestFree) / float64(spec.MemoryMB)
}

// LLCBalanceScore prefers hosts with low aggregate LLC pressure, so
// cache-hungry VMs spread across sockets cluster-wide instead of stacking
// on one machine. The scale constant is the paper's LLC-T bound: a host
// whose per-socket pressure sum matches one thrashing app scores ~50.
type LLCBalanceScore struct{}

// Name implements ScorePlugin.
func (LLCBalanceScore) Name() string { return "llc-balance" }

// Score implements ScorePlugin.
func (LLCBalanceScore) Score(spec *VMSpec, hv *HostView) float64 {
	return 100 / (1 + hv.LLCPressure/20)
}
