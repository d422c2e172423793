package xen

import (
	"math"

	"vprobe/internal/core"
	"vprobe/internal/numa"
	"vprobe/internal/sim"
)

func mathSqrt(x float64) float64   { return math.Sqrt(x) }
func mathMax(a, b float64) float64 { return math.Max(a, b) }

// Policy is a pluggable VCPU scheduling policy. The hypervisor drives the
// mechanics (quanta, ticks, credit accounting); the policy decides which
// VCPU a PCPU runs next and what happens at each sampling period.
type Policy interface {
	// Name identifies the policy in reports ("Credit", "vProbe", ...).
	Name() string
	// UsesPMU reports whether the policy virtualizes PMU counters
	// (adds Perfctr-Xen save/restore cost on context switches).
	UsesPMU() bool
	// NUMAAwareBalance reports whether the periodic placement re-pick
	// (csched_vcpu_acct's _csched_cpu_pick) is restricted to the local
	// node. Stock Credit (and VCPU-P, BRM) answer false — the
	// NUMA-oblivious behaviour §II-B measures.
	NUMAAwareBalance() bool
	// PickNext chooses the next VCPU for the idle PCPU p and removes it
	// from whatever queue holds it (the Hypervisor steal helpers do
	// this). Returning nil leaves p idle until a kick. With every run
	// queue of the host empty it must return nil and change nothing, not
	// even draw from h.RNG: an idle kick on such a host skips the call.
	PickNext(h *Hypervisor, p *PCPU) *VCPU
	// OnTick runs once per running VCPU per 10 ms tick (PMU refresh
	// costs, BRM's lock acquisition, ...).
	OnTick(h *Hypervisor, v *VCPU)
	// Period is the sampling period; <= 0 disables OnPeriod.
	Period() sim.Duration
	// OnPeriod runs at every sampling-period boundary.
	OnPeriod(h *Hypervisor)
}

// --- Reusable policy building blocks -----------------------------------

// NextLocal pops the head of p's own run queue.
func (h *Hypervisor) NextLocal(p *PCPU) *VCPU {
	return p.Dequeue()
}

// HeadIsRunnableUnder reports whether p's queue head exists and has UNDER
// priority or better (BOOST). Xen's csched_schedule only falls into load
// balancing when the local candidate is OVER (or absent); both the default
// and the NUMA-aware balancers share that trigger.
func (p *PCPU) HeadIsRunnableUnder() bool {
	head := p.PeekHead()
	return head != nil && head.Priority <= PrioUnder
}

// CreditSteal implements the default Credit scheduler's NUMA-oblivious
// work stealing: scan peer PCPUs in id order starting after p, looking for
// an UNDER-priority VCPU; when anyPriority is set (the stealing PCPU has
// nothing at all), a second pass settles for any stealable VCPU. The scan
// order crosses node boundaries freely — exactly the behaviour §II-B
// blames for remote-access inflation.
func (h *Hypervisor) CreditSteal(p *PCPU, anyPriority bool) *VCPU {
	n := len(h.PCPUs)
	passes := 1
	if anyPriority {
		passes = 2
	}
	for pass := 0; pass < passes; pass++ {
		for i := 1; i < n; i++ {
			q := h.PCPUs[(int(p.ID)+i)%n]
			// Cross-socket theft only repairs a real imbalance (the
			// migration costs the victim its cache state); the check is
			// queue-length based and still NUMA-oblivious about *which*
			// VCPU moves.
			if pass == 0 && q.Node != p.Node && q.Workload < p.QueueLen()+1 {
				continue
			}
			// Index-based scan of the victim queue (no Stealable slice).
			for qi := 0; qi < len(q.queue); qi++ {
				v := q.queue[qi]
				if !v.CanSteal() {
					continue
				}
				if pass == 0 && v.Priority > PrioUnder {
					continue
				}
				if pass == 0 && h.cacheHot(v) {
					continue
				}
				q.Remove(v)
				if h.Tele != nil {
					h.Tele.NoteSteal(q.Node == p.Node)
				}
				return v
			}
		}
	}
	return nil
}

// QueueViews builds Algorithm 2's per-node view of all run queues,
// excluding p's own queue. With underOnly set, only UNDER-priority VCPUs
// are visible (the head-is-OVER balancing path must not trade an OVER
// VCPU for another OVER VCPU). VCPUs partition-assigned to a node other
// than the stealer's are not offered for cross-node theft: the assignment
// holds until the next sampling period. With localOnly set (except must
// then be a PCPU), it builds only the views of except's node and leaves
// every other node's empty: PickSteal with no remote node order visits
// the local node alone, so it decides the same from these views as from
// all of them.
//
// The returned views are indexed by node id. They and their Runnable
// slices are owned by the hypervisor and reused on the next call; callers
// must consume them before then. visible counts the VCPUs the views
// offer; when it is zero, PickSteal finds nothing.
func (h *Hypervisor) QueueViews(except *PCPU, underOnly, localOnly bool) (views [][]core.QueueView, visible int) {
	if h.views == nil {
		h.views = make([][]core.QueueView, h.Top.NumNodes()) //vet:alloc built once on first use, then reused every call
	}
	for n := range h.views {
		h.views[n] = h.views[n][:0]
	}
	if localOnly {
		for _, cpu := range h.Top.CPUsOf(except.Node) {
			visible += h.appendView(h.PCPUs[cpu], except, underOnly)
		}
		return h.views, visible
	}
	for _, q := range h.PCPUs {
		visible += h.appendView(q, except, underOnly)
	}
	return h.views, visible
}

// appendView appends q's view to its node's views, unless q is except,
// and returns how many VCPUs it offers.
func (h *Hypervisor) appendView(q, except *PCPU, underOnly bool) int {
	if q == except {
		return 0
	}
	run := q.stealScratch[:0]
	for qi := 0; qi < len(q.queue); qi++ {
		v := q.queue[qi]
		if !v.CanSteal() {
			continue
		}
		if underOnly && v.Priority > PrioUnder {
			continue
		}
		if underOnly && h.cacheHot(v) {
			continue
		}
		if v.AssignedNode != numa.NoNode && except != nil && v.AssignedNode != except.Node {
			continue
		}
		//vet:alloc q.stealScratch is reused; grows to queue depth during warmup
		run = append(run, core.RunnableVCPU{
			VCPU:     int(v.ID),
			Pressure: v.LLCPressure,
		})
	}
	q.stealScratch = run
	//vet:alloc per-node slices grow to PCPU count during warmup, then reused
	h.views[q.Node] = append(h.views[q.Node], core.QueueView{CPU: q.ID, Workload: q.Workload, Runnable: run})
	return len(run)
}

// NUMAAwareSteal applies the paper's Algorithm 2: steal the
// lowest-pressure runnable VCPU from the most loaded PCPU of the local
// node, falling back to remote nodes in distance order. underOnly
// restricts candidates to UNDER priority (head-is-OVER trigger);
// localOnly suppresses the remote fallback entirely.
//
// It returns nil without running PickSteal when PickSteal could find
// nothing: before building any view when no queue it may look at holds a
// VCPU (an idle kick then costs one pass over the PCPUs), and after
// building them when they offer no VCPU. With localOnly it builds the
// local node's views only, the only ones PickSteal then reads.
func (h *Hypervisor) NUMAAwareSteal(p *PCPU, underOnly, localOnly bool) *VCPU {
	if !h.othersQueued(p, localOnly) {
		return nil
	}
	views, visible := h.QueueViews(p, underOnly, localOnly)
	if visible == 0 {
		return nil
	}
	var order []numa.NodeID
	if !localOnly {
		// The visit order depends only on the (immutable) topology; compute
		// it once per node and cache it.
		if h.nodeOrders == nil {
			h.nodeOrders = make([][]numa.NodeID, h.Top.NumNodes()) //vet:alloc topology-sized cache built once on first steal
		}
		order = h.nodeOrders[p.Node]
		if order == nil {
			order = core.NodeOrderFrom(h.Top, p.Node)
			h.nodeOrders[p.Node] = order
		}
	}
	d, ok := h.stealBufs.PickSteal(p.Node, order, views)
	if !ok {
		return nil
	}
	v := h.vcpus[d.VCPU]
	if !h.PCPUs[d.From].Remove(v) {
		return nil
	}
	if h.Tele != nil {
		h.Tele.NoteSteal(h.PCPUs[d.From].Node == p.Node)
	}
	return v
}

// othersQueued reports whether any PCPU other than p has a queued VCPU;
// with localOnly, only PCPUs on p's node count. With p nil and localOnly
// false, every PCPU of the host counts.
//
//vprobe:hotpath
func (h *Hypervisor) othersQueued(p *PCPU, localOnly bool) bool {
	for _, q := range h.PCPUs {
		if q != p && len(q.queue) > 0 && (!localOnly || q.Node == p.Node) {
			return true
		}
	}
	return false
}

// SampleAll samples every app-carrying VCPU's PMU window and returns the
// analyzer stats, charging the per-VCPU collection cost. This is the PMU
// data analyzer's period-end pass (§III-B). The returned slice is owned by
// the hypervisor and reused on the next call.
func (h *Hypervisor) SampleAll(an *core.Analyzer) []core.Stat {
	stats := h.statScratch[:0]
	for _, v := range h.vcpus {
		if v.App == nil {
			continue
		}
		d := v.Sampler.Sample(v.Counters)
		if h.Config.PMUNoiseFactor > 0 && d.Instructions > 0 {
			// Finite-window measurement noise: counter multiplexing and
			// interrupt skew make short windows unreliable.
			sd := h.Config.PMUNoiseFactor * mathSqrt(1e9/mathMax(d.Instructions, 1e6))
			d.LLCRef *= mathMax(0, h.RNG.Normal(1, sd))
		}
		s := an.Analyze(int(v.ID), d)
		v.NodeAffinity = s.Affinity
		v.LLCPressure = s.Pressure
		v.Type = s.Type
		h.ChargePMURead(v)
		stats = append(stats, s) //vet:alloc h.statScratch is reused; grows to VCPU count during warmup
	}
	h.statScratch = stats
	if h.Tele != nil {
		h.Tele.noteCensus(stats)
	}
	return stats
}

// ApplyPartition migrates VCPUs according to Algorithm 1's assignments and
// charges the partitioning pass cost.
func (h *Hypervisor) ApplyPartition(as []core.Assignment) {
	cpm := h.Top.CyclesPerMicrosecond()
	cost := h.Config.PartitionFixedMicros + h.Config.PartitionPerVCPUMicros*float64(len(as))
	h.SampleOverhead += sim.Duration(cost)
	if h.Tele != nil {
		h.Tele.Reassignments.Add(float64(len(as)))
	}
	// The pass runs in hypervisor context on one PCPU; charge whoever is
	// running there.
	if len(h.PCPUs) > 0 && h.PCPUs[0].Current != nil {
		h.PCPUs[0].Current.AddOverhead(cost*cpm, cpm)
	}
	// VCPUs outside this period's memory-intensive set lose their
	// assignment and return to default balancing. Clearing every
	// assignment before setting the new ones leaves what marking the
	// assigned VCPUs and clearing the rest after would: MigrateToNode
	// reads no VCPU's assignment.
	for _, v := range h.vcpus {
		if v.App != nil {
			v.AssignedNode = numa.NoNode
		}
	}
	for _, a := range as {
		v := h.vcpus[a.VCPU]
		v.AssignedNode = a.Node
		h.MigrateToNode(v, a.Node)
	}
}
