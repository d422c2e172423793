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
// winner lays the VM's memory out. The ranking is defined once, by score
// and ranksAbove; Place, the score cache and Explain all rank with them.
type Pipeline struct {
	Name    string
	Filters []FilterPlugin
	Scorers []WeightedScore
	// MemPlan maps the winning (spec, view) to a memory layout. When nil
	// the pipeline defaults to striping across nodes.
	MemPlan func(spec *VMSpec, host *HostView) MemPlan
}

// ErrNoHostFits is Place's error when every host filters out. Explain's
// filter reports name the plugin that vetoed each host.
var ErrNoHostFits = errors.New("cluster: no host fits")

// fits reports whether every filter admits spec on hv: the filter phase
// as one boolean, for Place, the score cache and the control-plane
// planners, which need the verdict but not the veto reason.
func (pl *Pipeline) fits(spec *VMSpec, hv *HostView) bool {
	for _, f := range pl.Filters {
		if f.Filter(spec, hv) != nil {
			return false
		}
	}
	return true
}

// score is spec's placement score on hv: the weighted sum over Scorers,
// in scorer order.
func (pl *Pipeline) score(spec *VMSpec, hv *HostView) float64 {
	var s float64
	for _, ws := range pl.Scorers {
		s += ws.Weight * ws.Plugin.Score(spec, hv)
	}
	return s
}

// ranksAbove reports whether a host with score s and index i ranks above
// one with score t and index j: the higher score wins, and a tie breaks
// toward the lower host index.
func ranksAbove(s float64, i int, t float64, j int) bool {
	if s != t {
		return s > t
	}
	return i < j
}

// memPlan is the memory layout for spec on the winning view: the
// pipeline's MemPlan, or striping when it sets none.
func (pl *Pipeline) memPlan(spec *VMSpec, hv *HostView) MemPlan {
	if pl.MemPlan == nil {
		return MemPlan{Policy: mem.PolicyStripe}
	}
	return pl.MemPlan(spec, hv)
}

// Place returns the top-ranked view that every filter admits, and the
// memory plan for it.
func (pl *Pipeline) Place(spec *VMSpec, views []*HostView) (*HostView, MemPlan, error) {
	var best *HostView
	var bestScore float64
	for _, hv := range views {
		if !pl.fits(spec, hv) {
			continue
		}
		if s := pl.score(spec, hv); best == nil || ranksAbove(s, hv.Index, bestScore, best.Index) {
			best, bestScore = hv, s
		}
	}
	if best == nil {
		return nil, MemPlan{}, ErrNoHostFits
	}
	return best, pl.memPlan(spec, best), nil
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
// every filter's verdict and the top-ranked candidates with per-plugin
// breakdowns. Candidates[0] is the winner when Feasible > 0.
type Explanation struct {
	Feasible   int
	Filters    []FilterReport
	Candidates []CandidateReport // in ranksAbove order, capped at topN
}

// Explain recomputes the decision Place (and the incremental score cache,
// which -place-check proves equivalent) makes over views, reporting every
// filter's vetoes and the per-plugin breakdown of the topN candidates. It
// ranks with Place's score and ranksAbove, so Candidates[0].Host is the
// host Place returns. Explain allocates freely: it runs once per recorded
// decision on the provenance path, never on the placement hot path.
func (pl *Pipeline) Explain(spec *VMSpec, views []*HostView, topN int) Explanation {
	ex := Explanation{Filters: make([]FilterReport, len(pl.Filters))}
	for i, f := range pl.Filters {
		ex.Filters[i].Plugin = f.Name()
	}
	type ranked struct {
		hv    *HostView
		total float64
	}
	var feasible []ranked
	for _, hv := range views {
		admitted := true
		for i, f := range pl.Filters {
			if err := f.Filter(spec, hv); err != nil {
				ex.Filters[i].Vetoes = append(ex.Filters[i].Vetoes, PluginVeto{hv.Name, err.Error()})
				admitted = false
				break
			}
			ex.Filters[i].Admitted++
		}
		if admitted {
			feasible = append(feasible, ranked{hv, pl.score(spec, hv)})
		}
	}
	ex.Feasible = len(feasible)
	sort.Slice(feasible, func(i, j int) bool {
		return ranksAbove(feasible[i].total, feasible[i].hv.Index, feasible[j].total, feasible[j].hv.Index)
	})
	if topN > 0 && len(feasible) > topN {
		feasible = feasible[:topN]
	}
	for _, r := range feasible {
		cand := CandidateReport{Host: r.hv.Name, Index: r.hv.Index, Total: r.total,
			Scores: make([]ScoreReport, len(pl.Scorers))}
		for i, ws := range pl.Scorers {
			raw := ws.Plugin.Score(spec, r.hv)
			cand.Scores[i] = ScoreReport{Plugin: ws.Plugin.Name(), Weight: ws.Weight,
				Raw: raw, Weighted: ws.Weight * raw}
		}
		ex.Candidates = append(ex.Candidates, cand)
	}
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
