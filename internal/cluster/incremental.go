package cluster

// The incremental placement engine. The pre-refactor arrival path rebuilt
// every host's view and rescored every host per event — O(hosts) work per
// arrival, which melts at datacenter scale. This file replaces the rebuild
// with persistent views plus a dirty-set:
//
//   - Every Host owns one HostView, refreshed in place when the host is
//     dirty. A host is dirty after an explicit placement delta (domain
//     added, destroyed, or activated), or when it can still execute guest
//     work and its engine advanced past the view's timestamp (running
//     guests block, wake, and change phase, which moves LLC pressure).
//     Hosts that are settled — no VMs, no runnable VCPU, every PCPU idle;
//     the overwhelming majority of a large fleet — are never revisited:
//     with nothing current or runnable no quantum can retire, so pressure
//     is frozen, and wakeups of destroyed VCPUs are no-ops. (The settled
//     test checks PCPUs, not just VCPU states: a domain teardown can race
//     the scheduler's redispatch and leave a VCPU current with an armed
//     quantum while its state reads blocked, so "no VMs and nothing
//     runnable" alone does not mean "quiescent"; see Host.settled.)
//
//   - refreshViews walks only the refresh list (hosts that ever received
//     a delta and still hold VMs or are not yet settled): it advances
//     those with an event due to cluster time and refreshes their views,
//     so bringing the fleet current costs O(dirty hosts), not O(hosts).
//     A host off the list is not advanced at all: its view cannot move
//     until the cluster mutates it, and the mutation catches it up
//     (touch; the sync-on-read invariant at syncHosts).
//
//   - A refresh bumps the host's generation, which is what invalidates
//     the score cache (scorecache.go), if and only if a placement input
//     moved: GuestVCPUs, VMs, LLCPressure, or a node's free memory. Most
//     refreshes of a busy host find every input unchanged (guests ran, so
//     counters moved, but nothing a filter or score reads), and an
//     unchanged view scores bit-identically, so skipping the rescore
//     cannot move a decision. An arrival then costs
//     O(changed hosts + log H): rescore them, repair the heap, read the
//     max.
//
// Every value the cached path serves is defined to equal what the
// from-scratch path (Host.freshView + Pipeline.Place) would produce at the
// same instant. Both paths rank with the one score, order and memory plan
// of plugin.go, so the two can differ only through a stale view or a
// stale cache entry; the -place-check shadow mode (placecheck.go) checks
// both decision by decision.

import "vprobe/internal/numa"

// markDirty flags a placement delta on the host and puts it on the
// refresh list. Call it after any mutation that changes what a view would
// show: AddDomain, DestroyDomain, ActivateDomain, or the VM-list edits
// around them.
//
//vprobe:hotpath
func (c *Cluster) markDirty(ho *Host) {
	if c.cfg.PlaceCheck {
		c.checkMutated(ho)
	}
	ho.dirty = true
	if !ho.queued {
		ho.queued = true
		//vet:alloc the refresh list's backing array grows to at most len(hosts) once, then is reused forever
		c.refreshList = append(c.refreshList, ho)
	}
}

// refreshViews brings every possibly-stale cached view current: it
// advances the refresh-list hosts to cluster time, once per cluster
// instant, then refreshes them. A second call at the same instant has
// nothing to advance: every host that joined the list since was caught up
// by the touch before its mutation. Hosts drop off the refresh list once they are empty and settled (see
// Host.settled): nothing on such a host can change a view until the
// cluster places something there again, and that placement re-queues it.
// A host that is empty but still winding down guest work (a teardown
// racing the scheduler's redispatch) stays on the list until it
// quiesces, so its pressure and counters keep tracking the truth.
//
//vprobe:hotpath
func (c *Cluster) refreshViews() {
	if now := c.engine.Now(); now != c.listAt {
		if !c.advance(c.refreshList, now) {
			return
		}
		c.listAt = now
	}
	kept := c.refreshList[:0]
	for _, ho := range c.refreshList {
		if ho.dirty || ho.H.Engine.Now() > ho.viewTime {
			c.refreshHost(ho)
		}
		if len(ho.VMs) > 0 || !ho.settled() {
			//vet:alloc compaction into the list's own backing array; kept starts at refreshList[:0] and can never outgrow it
			kept = append(kept, ho)
		} else {
			ho.queued = false
		}
	}
	c.refreshList = kept
}

// refreshHost recomputes the host's placement inputs and writes the ones
// that moved into the persistent view. Only a moved input bumps the view
// generation and invalidates the host's cached scores. The field-by-field
// computation is freshView's, so a refreshed cached view always equals a
// from-scratch snapshot taken at the same instant.
//
//vprobe:hotpath
func (c *Cluster) refreshHost(ho *Host) {
	v := &ho.view
	guest, vms, llc := ho.guestVCPUs(), len(ho.VMs), ho.llcPressure()
	changed := guest != v.GuestVCPUs || vms != v.VMs || llc != v.LLCPressure
	v.GuestVCPUs, v.VMs, v.LLCPressure = guest, vms, llc
	for n := 0; n < v.Nodes; n++ {
		free := ho.H.Alloc.FreeMB(numa.NodeID(n))
		if free == v.FreePerNodeMB[n] {
			continue
		}
		v.FreePerNodeMB[n] = free
		changed = true
	}
	ho.dirty = false
	ho.viewTime = ho.H.Engine.Now()
	if changed {
		ho.gen++
		c.scores.invalidate(ho.Index)
	}
}

// liveViews returns the stable all-hosts view slice after refreshing
// stale entries. The returned slice and the views it points to are owned
// by the cluster and valid until the next mutation; callers must not hold
// them across events.
func (c *Cluster) liveViews() []*HostView {
	c.refreshViews()
	return c.viewSlice
}

// liveView returns one host's refreshed view wrapped in a reusable
// single-entry slice, for the restricted Place calls (preemption re-place,
// descheduler move checks) that consider exactly one host.
func (c *Cluster) liveView(ho *Host) []*HostView {
	c.refreshViews()
	c.oneView[0] = &ho.view
	return c.oneView[:]
}

// place routes one VM spec through the incremental engine: refresh the
// dirty views, rescore only hosts whose generation moved, and read the
// winner off the class heap. This is the per-arrival hot path; it must
// decide exactly as Pipeline.Place over fresh views of every host would,
// and with -place-check on, checkPlacement verifies that it did.
//
//vprobe:hotpath
func (c *Cluster) place(spec *VMSpec) (*HostView, MemPlan, error) {
	c.refreshViews()
	hv, plan, err := c.scores.place(spec)
	if c.cfg.PlaceCheck {
		c.checkPlacement(spec, hv, plan, err)
	}
	return hv, plan, err
}
