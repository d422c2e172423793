package cluster

// The cluster-side control plane: a priority admission queue whose drain
// pass dispatches into the pure planners of internal/controlplane.
//
// Admission works on units. A unit is one VM, or — when gang admission is
// enabled — a whole VM group placed all-or-nothing. The queue orders units
// by (priority desc, arrival asc, unit id asc); a drain pass walks that
// order and attempts every unit whose retry timer has expired until it
// meets the first unit it cannot place now. That unit is the blocked head:
// everything behind it waits (no queue jumping), except that with backfill
// enabled a strictly smaller, strictly lower-priority single VM may be
// placed out of order when the shadow-placement check proves the jump
// cannot delay the head's earliest feasible start.
//
// Determinism: every decision here runs inside a cluster-engine event
// after syncHosts, reads only host state and the queue, and breaks every
// tie totally (priority, arrival time, unit id; host index; victim id), so
// reports stay byte-identical at any worker count.

import (
	"fmt"
	"sort"

	"vprobe/internal/controlplane"
	"vprobe/internal/mem"
	"vprobe/internal/sim"
	"vprobe/internal/xen"
)

// admitUnit is one entry of the admission queue: a single VM, or a gang
// admitted all-or-nothing.
type admitUnit struct {
	id       int // creation order; final tiebreak
	vms      []*VM
	gang     bool
	priority controlplane.Priority
	arriveAt sim.Time
	nextTry  sim.Time // earliest next placement attempt
	retries  int      // failed attempts so far
}

// admitResult is the outcome of one placement attempt for a unit.
type admitResult int

const (
	admitPlaced admitResult = iota
	admitFailed
	admitRejected
)

// enqueue appends a unit to the admission queue.
func (c *Cluster) enqueue(u *admitUnit) { c.queue = append(c.queue, u) }

// dequeue removes a unit from the admission queue.
func (c *Cluster) dequeue(u *admitUnit) {
	for i, q := range c.queue {
		if q == u {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

// queueOrder returns the queue in admission order: priority desc, arrival
// asc, unit id asc. The returned slice is the cluster's reusable scratch,
// valid until the next call.
func (c *Cluster) queueOrder() []*admitUnit {
	ordered := append(c.orderScratch[:0], c.queue...)
	c.orderScratch = ordered[:0]
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if a.priority != b.priority {
			return a.priority > b.priority
		}
		if a.arriveAt != b.arriveAt {
			return a.arriveAt < b.arriveAt
		}
		return a.id < b.id
	})
	return ordered
}

// drainQueue runs placement passes until one changes nothing. Multiple
// passes matter when a pass preempts: the evicted victims are requeued as
// fresh units and deserve an attempt at the same instant.
func (c *Cluster) drainQueue() {
	for len(c.queue) > 0 && c.err == nil {
		if !c.placePass() {
			return
		}
	}
}

// placePass walks the queue once in admission order and reports whether it
// changed cluster state (placed, rejected, or preempted anything).
func (c *Cluster) placePass() bool {
	now := c.engine.Now()
	changed := false
	var head *admitUnit
	for _, u := range c.queueOrder() {
		if c.err != nil {
			return changed
		}
		if head == nil {
			if u.nextTry > now {
				head = u // in backoff: blocks, but is not attempted
				continue
			}
			switch c.attemptUnit(u) {
			case admitPlaced, admitRejected:
				c.dequeue(u)
				changed = true
			case admitFailed:
				head = u
			}
			continue
		}
		// Behind the blocked head: backfill is the only way forward.
		// Gangs never jump and are never jumped past — a gang head's
		// multi-host reservation is not representable in the single-host
		// shadow check, so the conservative choice is to wait.
		if !c.cfg.Backfill || u.gang || head.gang {
			continue
		}
		if u.priority >= head.priority ||
			u.vms[0].Spec.MemoryMB >= head.vms[0].Spec.MemoryMB {
			continue
		}
		if c.tryBackfill(u, head) {
			c.dequeue(u)
			changed = true
		}
	}
	return changed
}

// attemptUnit tries to place a unit now, handling retry bookkeeping and
// final rejection. Preemption counts as part of the attempt.
func (c *Cluster) attemptUnit(u *admitUnit) admitResult {
	ok := false
	if u.gang {
		ok = c.tryAdmitGang(u)
	} else {
		ok = c.tryAdmitSingle(u)
	}
	if c.err != nil {
		return admitFailed
	}
	if ok {
		return admitPlaced
	}
	u.retries++
	if u.retries > maxRetries {
		for _, vm := range u.vms {
			vm.state = stateRejected
			c.stats.Rejected++
			c.pstats[vm.Spec.Priority].Rejected++
			c.record(decision{kind: EventVMReject, vm: vm, attempt: u.retries})
		}
		return admitRejected
	}
	c.stats.Retries++
	backoff := retryBackoff * sim.Duration(u.retries)
	u.nextTry = c.engine.Now().Add(backoff)
	d := decision{kind: EventVMRetry, vm: u.vms[0], attempt: u.retries, dur: backoff}
	if u.gang {
		d.gang = u.vms
	}
	c.record(d)
	c.engine.Schedule(backoff, "retry", func(*sim.Engine) {
		if !c.sync() {
			return
		}
		c.drainQueue()
	})
	return admitFailed
}

// tryAdmitSingle places one VM through the pipeline, falling back to
// preemption for above-best-effort classes when enabled.
func (c *Cluster) tryAdmitSingle(u *admitUnit) bool {
	vm := u.vms[0]
	hv, plan, err := c.place(&vm.Spec)
	if c.spans != nil {
		// Record the decision's provenance before acting on it: placeOn
		// mutates the host, and the breakdown must reflect the views the
		// decision actually read.
		c.spans.placeDecision(vm, c.liveViews(), hv, err, u.retries+1)
	}
	if err == nil {
		c.placeOn(vm, c.hosts[hv.Index], plan, u.retries+1)
		return c.err == nil
	}
	if c.cfg.Preempt && u.priority > controlplane.BestEffort {
		return c.tryPreemptFor(u, vm)
	}
	return false
}

// tryPreemptFor searches for a minimal set of strictly-lower-priority
// victims whose eviction admits the VM, executes the cheapest plan
// (victims are live-migrated when any other host fits them, else killed
// and requeued), and places the VM on the freed host.
func (c *Cluster) tryPreemptFor(u *admitUnit, vm *VM) bool {
	req := controlplane.Request{
		ID: vm.ID, MemoryMB: vm.Spec.MemoryMB,
		VCPUs: vm.Spec.VCPUs, Priority: u.priority,
	}
	caps := c.hostCaps(func(v *VM) bool { return v.Spec.Priority < u.priority })
	plan := controlplane.PlanPreemption(req, caps, c.cpFit)
	if plan == nil {
		return false
	}
	target := c.hosts[plan.HostIndex]
	for _, id := range plan.VictimIDs {
		victim := c.vms[id]
		if victim.state != stateRunning || victim.Host != target {
			return false // plan went stale before any eviction of it ran
		}
		c.evictVictim(victim, vm)
		if c.err != nil {
			return false
		}
	}
	// The evictions freed real capacity; re-run the pipeline restricted to
	// the planned host so the memory plan reflects the post-eviction
	// layout. The planner replayed each victim's release with the
	// allocator's rounding, so this fails only when an eviction freed
	// nothing (a migration that could not start); the arrival then stays
	// queued (the victims are already safe: migrated or requeued).
	hv, mplan, err := c.pipeline.Place(&vm.Spec, c.liveView(target))
	if c.spans != nil {
		// The post-eviction re-place is restricted to the planned host;
		// its provenance explains that single candidate.
		c.spans.placeDecision(vm, c.liveView(target), hv, err, u.retries+1)
	}
	if err != nil {
		return false
	}
	c.placeOn(vm, c.hosts[hv.Index], mplan, u.retries+1)
	return c.err == nil
}

// evictVictim removes one preemption victim from its host: live-migrated
// to any other host that fits it, else killed and returned to the
// admission queue with its remaining lifetime.
func (c *Cluster) evictVictim(victim, beneficiary *VM) {
	src := victim.Host
	// Earlier evictions in the same preemption plan dirtied hosts;
	// refresh before reading so this victim sees their effect, exactly
	// as the per-eviction fresh snapshots used to.
	c.refreshViews()
	alt := c.altScratch[:0]
	for _, ho := range c.hosts {
		if ho != src {
			alt = append(alt, &ho.view)
		}
	}
	c.altScratch = alt[:0]
	c.stats.Preemptions++
	if hv, plan, err := c.pipeline.Place(&victim.Spec, alt); err == nil {
		target := c.hosts[hv.Index]
		c.record(decision{kind: EventVMPreempted, vm: victim, host: src, target: target,
			peer: beneficiary, dur: c.migrationBlackout(victim, target)})
		c.startMigration(victim, target, plan)
		return
	}
	c.stats.PreemptKills++
	c.record(decision{kind: EventVMPreempted, vm: victim, host: src, peer: beneficiary})
	c.touch(src)
	if err := src.H.DestroyDomain(victim.dom); err != nil {
		c.err = fmt.Errorf("cluster: preempt %s: %w", victim.Spec.Name, err)
		c.engine.Stop()
		return
	}
	src.removeVM(victim)
	c.markDirty(src)
	c.requeueVictim(victim)
}

// requeueVictim returns a killed preemption victim to the admission queue
// as a fresh unit carrying its remaining lifetime and original arrival
// time (it keeps its queue seniority within its class).
func (c *Cluster) requeueVictim(vm *VM) {
	now := c.engine.Now()
	if vm.departAt > now {
		vm.life = vm.departAt.Sub(now)
	} else {
		vm.life = sim.Second
	}
	vm.departAt = 0
	vm.departSeq++
	vm.dom = nil
	vm.Host = nil
	vm.state = statePending
	u := &admitUnit{
		id:       c.unitSeq,
		vms:      []*VM{vm},
		priority: vm.Spec.Priority,
		arriveAt: vm.arriveAt,
		nextTry:  now,
	}
	c.unitSeq++
	c.enqueue(u)
}

// tryAdmitGang places a whole gang all-or-nothing in two phases.
// Reserve: every member is routed through the class score cache against
// the live views, with the earlier members' deductions applied to them
// (reserveGang); the views are then restored exactly (restoreGang).
// Commit: all domains are built first, and only then does any member's
// placement finalize. The reserve deducts with mem.Take, the allocator's
// own arithmetic, so every reserved layout fits its allocator; an
// AddDomain failure mid-commit (a check the reserve does not make, such
// as a member without VCPUs) tears the built domains down again and the
// gang retries as a whole.
func (c *Cluster) tryAdmitGang(u *admitUnit) bool {
	c.refreshViews()
	slots := make([]gangSlot, len(u.vms))
	placed := c.reserveGang(u.vms, slots)
	c.restoreGang()
	if c.cfg.PlaceCheck {
		c.checkGangReserve(u.vms, slots, placed)
		if c.err != nil {
			return false
		}
	}
	if placed < len(u.vms) {
		return false
	}
	doms := make([]*xen.Domain, len(u.vms))
	for i, vm := range u.vms {
		dom, err := c.admitDomain(vm, slots[i].host, slots[i].plan)
		if err != nil {
			if c.err == nil {
				// Roll back the domains already built. Each teardown
				// dirties its host, whose next refresh bumps its
				// generation only if the rollback left an input moved;
				// the host where AddDomain itself failed mutated
				// nothing and stays clean.
				for j := 0; j < i; j++ {
					c.touch(slots[j].host)
					if derr := slots[j].host.H.DestroyDomain(doms[j]); derr != nil {
						c.err = fmt.Errorf("cluster: gang rollback on %s: %w",
							slots[j].host.Name, derr)
						c.engine.Stop()
						break
					}
					c.markDirty(slots[j].host)
				}
			}
			return false
		}
		doms[i] = dom
	}
	for i, vm := range u.vms {
		c.finalizePlacement(vm, slots[i].host, doms[i], slots[i].plan, u.retries+1)
	}
	c.stats.GangsAdmitted++
	c.record(decision{kind: EventGangAdmitted, vm: u.vms[0], gang: u.vms})
	return true
}

// gangSlot is one gang member's reserved host and memory plan.
type gangSlot struct {
	host *Host
	plan MemPlan
}

// reservedHost is a host's placement inputs as they stood before the
// gang reserve first deducted from its view.
type reservedHost struct {
	ho         *Host
	free       []int64
	guest, vms int
	gen        uint64
}

// reserveGang routes each member through the class score cache and
// applies its deduction to the winner's live view before the next member
// places, bumping that host's generation so the cache rescores it. It
// fills slots for the members that found a host and returns how many did:
// len(vms) when the whole gang fits, else the index of the first member
// that fit nowhere. The views are left reserved; the
// caller must restoreGang before anything else reads them.
func (c *Cluster) reserveGang(vms []*VM, slots []gangSlot) int {
	for i, vm := range vms {
		hv, plan, err := c.scores.place(&vm.Spec)
		if err != nil {
			return i
		}
		ho := c.hosts[hv.Index]
		c.saveReserved(ho)
		mem.Take(hv.FreePerNodeMB, vm.Spec.MemoryMB, plan.Policy, plan.Preferred)
		hv.GuestVCPUs += vm.Spec.VCPUs
		hv.VMs++
		ho.gen++
		c.scores.invalidate(ho.Index)
		slots[i] = gangSlot{ho, plan}
	}
	return len(vms)
}

// saveReserved records a host's view inputs the first time the current
// gang reserve touches it.
func (c *Cluster) saveReserved(ho *Host) {
	for i := range c.reserved {
		if c.reserved[i].ho == ho {
			return
		}
	}
	n := len(c.reserved)
	if n < cap(c.reserved) {
		c.reserved = c.reserved[:n+1]
	} else {
		c.reserved = append(c.reserved, reservedHost{})
	}
	r := &c.reserved[n]
	v := &ho.view
	r.ho = ho
	r.free = append(r.free[:0], v.FreePerNodeMB...)
	r.guest, r.vms, r.gen = v.GuestVCPUs, v.VMs, ho.gen
}

// restoreGang puts every view and generation the reserve touched back
// exactly as saved, then rescores the restored hosts in every class: an
// entry scored against a reserved view carries a generation the host will
// reach again with different inputs, so it must not outlive the reserve.
func (c *Cluster) restoreGang() {
	for i := range c.reserved {
		r := &c.reserved[i]
		v := &r.ho.view
		copy(v.FreePerNodeMB, r.free)
		v.GuestVCPUs, v.VMs = r.guest, r.vms
		r.ho.gen = r.gen
		c.scores.settle(r.ho.Index)
	}
	c.reserved = c.reserved[:0]
}

// tryBackfill places a small low-priority VM ahead of the blocked head if
// the pipeline finds it a host and the shadow-placement check proves the
// jump cannot delay the head's earliest feasible start.
func (c *Cluster) tryBackfill(u, head *admitUnit) bool {
	vm := u.vms[0]
	hv, plan, err := c.place(&vm.Spec)
	if err != nil {
		return false
	}
	headVM := head.vms[0]
	req := controlplane.Request{
		ID: headVM.ID, MemoryMB: headVM.Spec.MemoryMB,
		VCPUs: headVM.Spec.VCPUs, Priority: head.priority,
	}
	caps := c.hostCaps(nil)
	deps := c.departures()
	res := controlplane.ShadowReservation(req, caps, deps, c.cpFit, nil)
	cand := controlplane.Placement{
		HostIndex:    hv.Index,
		TakesPerNode: planTakes(plan, hv.FreePerNodeMB, vm.Spec.MemoryMB),
		VCPUs:        vm.Spec.VCPUs,
	}
	if !controlplane.CanBackfill(req, res, caps, deps, c.cpFit, cand) {
		return false
	}
	if c.spans != nil {
		// The decision's views are unchanged since c.place: the shadow
		// reservation works on copied caps, never the hosts.
		c.spans.placeDecision(vm, c.liveViews(), hv, nil, u.retries+1)
	}
	target := c.hosts[hv.Index]
	c.placeOn(vm, target, plan, u.retries+1)
	if c.err != nil {
		return false
	}
	c.stats.Backfills++
	c.record(decision{kind: EventBackfill, vm: vm, host: target, peer: headVM})
	return true
}

// deschedule is the periodic defragmentation pass: during low load (empty
// admission queue, cluster VCPU commitment under the configured limit) it
// drains the emptiest host whose entire population can move elsewhere,
// one host per tick, reusing the rebalancer's migration cooldown so a VM
// is never ping-ponged.
func (c *Cluster) deschedule() {
	if !c.sync() {
		return
	}
	if len(c.queue) > 0 {
		return
	}
	var guest, cap int
	for _, hv := range c.liveViews() {
		guest += hv.GuestVCPUs
		cap += hv.VCPUCap
	}
	if cap == 0 || float64(guest)/float64(cap) > descheduleUtilLimit {
		return
	}
	now := c.engine.Now()
	caps := c.hostCaps(func(v *VM) bool {
		return now.Sub(v.placedAt) >= c.cfg.migrationCooldown()
	})
	plan := controlplane.PlanDrain(caps, c.cpFit)
	if plan == nil {
		return
	}
	src := c.hosts[plan.HostIndex]
	for _, mv := range plan.Moves {
		vm := c.vms[mv.VictimID]
		if vm.state != stateRunning || vm.Host != src {
			continue
		}
		hv, mplan, err := c.pipeline.Place(&vm.Spec, c.liveView(c.hosts[mv.TargetHost]))
		if err != nil {
			continue // capacity moved since the plan; skip this move
		}
		target := c.hosts[hv.Index]
		c.stats.DeschedMoves++
		c.record(decision{kind: EventDeschedule, vm: vm, host: src, target: target})
		c.startMigration(vm, target, mplan)
		if c.err != nil {
			return
		}
	}
}

// ---- planner adapters ----

// hostCaps snapshots every host as a control-plane capacity record,
// reading the cached views (refreshed first) instead of rescanning the
// allocators. The per-cap slices are fresh copies: the planners treat
// caps as their own what-if state to deduct from. victimFilter, when
// non-nil, selects which running VMs are offered to the planner as
// evictable; migrating VMs are never offered.
func (c *Cluster) hostCaps(victimFilter func(*VM) bool) []*controlplane.HostCap {
	c.refreshViews()
	caps := make([]*controlplane.HostCap, len(c.hosts))
	for i, ho := range c.hosts {
		hc := &controlplane.HostCap{
			Index:         i,
			GuestVCPUs:    ho.view.GuestVCPUs,
			VCPUCap:       ho.view.VCPUCap,
			LiveVMs:       ho.view.VMs,
			FreePerNodeMB: append([]int64(nil), ho.view.FreePerNodeMB...),
		}
		if victimFilter != nil {
			for _, vm := range ho.VMs {
				if vm.state != stateRunning || !victimFilter(vm) {
					continue
				}
				hc.Victims = append(hc.Victims, controlplane.Victim{
					ID: vm.ID, MemoryMB: vm.Spec.MemoryMB, VCPUs: vm.Spec.VCPUs,
					Priority:       vm.Spec.Priority,
					FreesPerNodeMB: domFrees(vm),
					CostCycles:     c.migrator.FullCopyCycles(vm.Spec.MemoryMB),
				})
			}
		}
		caps[i] = hc
	}
	return caps
}

// cpFit adapts the pipeline's filter phase to the control-plane planners:
// a what-if host capacity passes when every filter of the active policy
// admits a synthetic spec with the request's resources.
func (c *Cluster) cpFit(req controlplane.Request, hc *controlplane.HostCap) bool {
	ho := c.hosts[hc.Index]
	spec := VMSpec{
		Name:     fmt.Sprintf("vm%03d", req.ID),
		MemoryMB: req.MemoryMB,
		VCPUs:    req.VCPUs,
	}
	hv := &HostView{
		Index:         hc.Index,
		Name:          ho.Name,
		Nodes:         ho.Top.NumNodes(),
		CPUs:          ho.Top.NumCPUs(),
		FreePerNodeMB: hc.FreePerNodeMB,
		TotalMB:       ho.Top.TotalMemoryMB(),
		GuestVCPUs:    hc.GuestVCPUs,
		VCPUCap:       hc.VCPUCap,
		VMs:           hc.LiveVMs,
	}
	for _, f := range c.pipeline.Filters {
		if f.Filter(&spec, hv) != nil {
			return false
		}
	}
	return true
}

// departures lists every resident VM's known future departure — lifetimes
// are drawn at arrival, so the schedule is exact, not a forecast.
func (c *Cluster) departures() []controlplane.Departure {
	now := c.engine.Now()
	var deps []controlplane.Departure
	for _, ho := range c.hosts {
		for _, vm := range ho.VMs {
			if vm.departAt <= now || vm.dom == nil || vm.dom.Destroyed {
				continue
			}
			deps = append(deps, controlplane.Departure{
				At: vm.departAt, HostIndex: ho.Index, ID: vm.ID,
				FreesPerNodeMB: domFrees(vm), VCPUs: vm.Spec.VCPUs,
			})
		}
	}
	return deps
}

// domFrees is the per-node memory a domain's teardown hands back, with
// the allocator's release rounding.
func domFrees(vm *VM) []int64 {
	frees := make([]int64, len(vm.dom.MemDist))
	for i := range frees {
		frees[i] = vm.dom.MemDist.ReleasedMB(i, vm.dom.MemoryMB)
	}
	return frees
}

// planTakes is the per-node deduction a memory plan implies on a host
// whose free vector is freePerNode: mem.Take on a copy, the arithmetic the
// allocator runs when the plan is admitted.
func planTakes(plan MemPlan, freePerNode []int64, memMB int64) []int64 {
	takes, _ := mem.Take(append([]int64(nil), freePerNode...), memMB, plan.Policy, plan.Preferred)
	return takes
}
