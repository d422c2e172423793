package cluster

import (
	"context"
	"fmt"
	"math"

	"vprobe/internal/numa"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
	"vprobe/internal/xen"
)

// Host is one hypervisor in the cluster: an independent xen.Hypervisor
// with its own NUMA topology, scheduling policy, seeded RNG, and event
// engine. Hosts share nothing, which is what lets the cluster advance them
// in parallel between cluster-level decisions.
type Host struct {
	Index int
	Name  string
	Top   *numa.Topology
	H     *xen.Hypervisor

	// VMs are the live (placed or migrating-in) VMs, in placement order.
	VMs []*VM
	// Placed counts cumulative placements, including migrations in.
	Placed int

	// Rebalance-interval counter snapshot (see intervalRemoteRatio).
	lastTotal, lastRemote float64

	// Incremental placement state (DESIGN.md §14). view is the persistent
	// snapshot the pipeline reads; it is refreshed — never rebuilt — when
	// the host is dirty.
	view HostView
	// gen counts changes to the view's placement inputs: it moves if and
	// only if a view field moved, on a refresh or during a gang reserve.
	// The score cache stores the generation a cached (pipeline, host)
	// score was computed at; a bumped generation is the only thing that
	// invalidates it.
	gen uint64
	// dirty flags an explicit placement delta (domain added, destroyed,
	// or activated) since the last refresh. A host also needs a refresh
	// when it carries VMs and its engine advanced past viewTime: running
	// guests block, wake and change phase, which moves LLC pressure.
	dirty  bool
	queued bool // on the cluster's refresh list
	// viewTime is the host-engine time the view reflects.
	viewTime sim.Time
	// llc caches llcPressure's value, computed at runnable generation
	// llcGen of the hypervisor (xen.Hypervisor.RunnableGen).
	llc    float64
	llcGen uint64
}

// newHost builds and starts one host on the shared, immutable topology. Starting with zero domains is valid:
// the tickers arm and every PCPU idles until the first VM activates.
func newHost(index int, top *numa.Topology, kind sched.Kind, seed uint64) (*Host, error) {
	pol, err := sched.New(kind)
	if err != nil {
		return nil, err
	}
	cfg := xen.DefaultConfig()
	cfg.Seed = seed
	h := xen.New(top, pol, cfg)
	if err := h.Start(); err != nil {
		return nil, err
	}
	return &Host{
		Index: index,
		Name:  fmt.Sprintf("host%d", index),
		Top:   top,
		H:     h,
	}, nil
}

// initView seeds the host's persistent view: the static fields and the
// free-memory vector. refreshHost only applies deltas to the free vector,
// so it must start equal to the allocator's; the first refresh fills the
// rest.
func (ho *Host) initView() {
	nodes := ho.Top.NumNodes()
	free := make([]int64, nodes)
	for n := 0; n < nodes; n++ {
		free[n] = ho.H.Alloc.FreeMB(numa.NodeID(n))
	}
	ho.view = HostView{
		Index:         ho.Index,
		Name:          ho.Name,
		Nodes:         nodes,
		CPUs:          ho.Top.NumCPUs(),
		FreePerNodeMB: free,
		TotalMB:       ho.Top.TotalMemoryMB(),
		VCPUCap:       int(overcommit * float64(ho.Top.NumCPUs())),
	}
}

// advanceTo runs the host's own event engine up to absolute cluster time
// t. Host clocks and the cluster clock share t=0, so this brings the
// host's state current before a cluster-level decision reads it.
func (ho *Host) advanceTo(ctx context.Context, t sim.Time) error {
	if ho.H.Engine.Now() >= t {
		return nil
	}
	_, err := ho.H.RunContext(ctx, sim.Duration(t))
	return err
}

// nextDue is the time the host must next advance by: its earliest queued
// event, or never when its queue is empty.
func (ho *Host) nextDue() sim.Time {
	if at, ok := ho.H.Engine.NextAt(); ok {
		return at
	}
	return math.MaxInt64
}

// guestVCPUs counts VCPUs of live domains (the CPU overcommit figure).
func (ho *Host) guestVCPUs() int {
	n := 0
	for _, vm := range ho.VMs {
		n += vm.Spec.VCPUs
	}
	return n
}

// settled reports that nothing on the host can change its view anymore:
// every PCPU is idle (the hypervisor's running count is zero) and no VCPU
// is runnable. The incremental engine uses it as the quiescence test for
// empty hosts — once settled, the cached view's pressure and counters are
// frozen until the cluster mutates the host again (wakeups of destroyed
// VCPUs are no-ops).
//
// The PCPU check is load-bearing, not belt-and-braces: a domain teardown
// can race the scheduler's redispatch, leaving a VCPU current on a PCPU
// with an armed quantum while its state reads blocked. The armed quantum
// later retires and re-runs the VCPU, so a host that looks idle by VCPU
// states alone may still be executing. "No current VCPU anywhere" is
// what guarantees no pending quantum can move the view.
//
//vprobe:hotpath
func (ho *Host) settled() bool {
	if ho.H.Running() != 0 {
		return false
	}
	for _, v := range ho.H.LiveVCPUs() {
		if v.Runnable() {
			return false
		}
	}
	return true
}

// removeVM drops a VM from the live list.
func (ho *Host) removeVM(vm *VM) {
	for i, v := range ho.VMs {
		if v == vm {
			ho.VMs = append(ho.VMs[:i], ho.VMs[i+1:]...)
			return
		}
	}
}

// llcPressure sums the current-phase LLC reference intensity (RPTI) of the
// host's active VCPUs, averaged per socket — the cluster-level analogue of
// the paper's per-socket pressure sum that periodical partitioning
// balances inside one host. The sum is recomputed, over the live VCPUs,
// only when the hypervisor's runnable generation moved since the cached
// one; freshView's uncached walk over every VCPU checks the cache.
func (ho *Host) llcPressure() float64 {
	if gen := ho.H.RunnableGen(); gen != ho.llcGen {
		ho.llc, ho.llcGen = pressureOf(ho.H.LiveVCPUs(), ho.Top.NumNodes()), gen
	}
	return ho.llc
}

// pressureOf is the per-socket RPTI sum of the runnable VCPUs in vcpus.
// Non-runnable VCPUs add nothing, so any list holding every runnable
// VCPU in creation order gives the same bits.
func pressureOf(vcpus []*xen.VCPU, nodes int) float64 {
	var sum float64
	for _, v := range vcpus {
		if !v.Runnable() {
			continue
		}
		if ph := v.Phase(); ph != nil {
			sum += ph.RPTI
		}
	}
	return sum / float64(nodes)
}

// counterTotals sums lifetime memory-access counters over every VCPU the
// host has ever run (including departed domains, whose counters survive).
func (ho *Host) counterTotals() (total, remote float64) {
	for _, v := range ho.H.AllVCPUs() {
		total += v.Counters.Total()
		remote += v.Counters.Remote
	}
	return total, remote
}

// remoteRatio is the host's lifetime remote-access ratio.
func (ho *Host) remoteRatio() float64 {
	total, remote := ho.counterTotals()
	if total <= 0 {
		return 0
	}
	return remote / total
}

// intervalRemoteRatio returns the remote-access ratio since the previous
// call and advances the snapshot. The rebalancer uses this (not the
// lifetime ratio) so an old imbalance that was already fixed does not keep
// triggering migrations. Counters are not a placement input, so no view
// refresh sums them; the rebalance scan sums them here, once per host per
// tick.
func (ho *Host) intervalRemoteRatio() float64 {
	total, remote := ho.counterTotals()
	dt, dr := total-ho.lastTotal, remote-ho.lastRemote
	ho.lastTotal, ho.lastRemote = total, remote
	if dt <= 0 {
		return 0
	}
	return dr / dt
}

// freshView snapshots the host's placement-relevant state from scratch,
// exactly as the pre-incremental engine did on every arrival. The cached
// path must agree with it byte for byte; the -place-check shadow mode and
// the invalidation tests compare against it. The VCPU overcommit factor is
// baked into the view so plugins stay pure functions of (spec, view).
func (ho *Host) freshView() *HostView {
	//vet:alloc freshView is the from-scratch reference, reached from the hot path only via the diagnostic -place-check shadow mode
	v := &HostView{
		Index:       ho.Index,
		Name:        ho.Name,
		Nodes:       ho.Top.NumNodes(),
		CPUs:        ho.Top.NumCPUs(),
		TotalMB:     ho.Top.TotalMemoryMB(),
		GuestVCPUs:  ho.guestVCPUs(),
		VCPUCap:     int(overcommit * float64(ho.Top.NumCPUs())),
		VMs:         len(ho.VMs),
		LLCPressure: pressureOf(ho.H.AllVCPUs(), ho.Top.NumNodes()),
	}
	for n := 0; n < ho.Top.NumNodes(); n++ {
		//vet:alloc from-scratch snapshot allocation, shadow mode only
		v.FreePerNodeMB = append(v.FreePerNodeMB, ho.H.Alloc.FreeMB(numa.NodeID(n)))
	}
	return v
}
