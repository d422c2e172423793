package cluster

// The cluster-side control plane: a priority admission queue, and the
// three planners its drain pass and the descheduler consult when the
// pipeline alone cannot place a VM (preemption, backfill's shadow
// reservation, and the descheduler's drain). Each planner searches
// what-if copies of the cached host views (HostView.whatIf) with the
// active pipeline's own filters (Pipeline.fits), so a plan admits exactly
// what the real pipeline would; none of them touches a live host.
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

	"vprobe/internal/sim"
	"vprobe/internal/xen"
)

// admitUnit is one entry of the admission queue: a single VM, or a gang
// admitted all-or-nothing.
type admitUnit struct {
	id       int // creation order; final tiebreak
	vms      []*VM
	gang     bool
	priority Priority
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
	if c.cfg.Preempt && u.priority > BestEffort {
		return c.tryPreemptFor(u, vm)
	}
	return false
}

// tryPreemptFor searches for a minimal set of strictly-lower-priority
// victims whose eviction admits the VM, executes the cheapest plan
// (victims are live-migrated when any other host fits them, else killed
// and requeued), and places the VM on the freed host.
func (c *Cluster) tryPreemptFor(u *admitUnit, vm *VM) bool {
	target, victims := c.planPreemption(&vm.Spec, u.priority)
	if target == nil {
		return false
	}
	for _, victim := range victims {
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
		hv.admit(&vm.Spec, plan)
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
	if c.delaysHead(&headVM.Spec, hv, &vm.Spec, plan) {
		return false
	}
	if c.spans != nil {
		// The decision's views are unchanged since c.place: the shadow
		// reservation works on what-if copies, never the cached views.
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
	src, moves := c.planDrain(func(vm *VM) bool {
		return now.Sub(vm.placedAt) >= c.cfg.migrationCooldown()
	})
	if src == nil {
		return
	}
	for _, mv := range moves {
		vm := mv.vm
		if vm.state != stateRunning || vm.Host != src {
			continue
		}
		hv, mplan, err := c.pipeline.Place(&vm.Spec, c.liveView(mv.target))
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

// ---- planners ----

// planPreemption searches every host for a minimal set of running,
// strictly-lower-priority victims whose eviction admits spec, and returns
// the cheapest plan's host and victims in eviction order (ties: fewer
// victims, then the lower host index), or a nil host when no host can be
// preempted into fitting. A victim's price is its full-copy migration
// cost, charged whether it is live-migrated or killed and requeued.
func (c *Cluster) planPreemption(spec *VMSpec, prio Priority) (*Host, []*VM) {
	c.refreshViews()
	var best *Host
	var bestVictims []*VM
	var bestCost float64
	for _, ho := range c.hosts {
		victims, cost := c.preemptOn(ho, spec, prio)
		if victims == nil {
			continue
		}
		if best == nil || cost < bestCost ||
			(cost == bestCost && len(victims) < len(bestVictims)) {
			best, bestVictims, bestCost = ho, victims, cost
		}
	}
	return best, bestVictims
}

// preemptOn finds one host's victim set, or nil. The search is
// greedy-then-prune: victims are taken lowest class and cheapest first
// until spec fits, then each chosen victim is dropped again (most
// expensive first) if the fit survives without it. No chosen victim is
// redundant; the exact minimum-cost set is a knapsack variant not worth
// its nondeterminism risk here.
func (c *Cluster) preemptOn(ho *Host, spec *VMSpec, prio Priority) ([]*VM, float64) {
	var pool []*VM
	for _, vm := range ho.VMs {
		if vm.state == stateRunning && vm.Spec.Priority < prio {
			pool = append(pool, vm)
		}
	}
	if len(pool) == 0 {
		return nil, 0
	}
	cost := func(vm *VM) float64 { return c.migrator.FullCopyCycles(vm.Spec.MemoryMB) }
	// Lowest class, then cheapest; ID breaks remaining ties so the greedy
	// order is total.
	sort.Slice(pool, func(i, j int) bool {
		a, b := pool[i], pool[j]
		if a.Spec.Priority != b.Spec.Priority {
			return a.Spec.Priority < b.Spec.Priority
		}
		if ca, cb := cost(a), cost(b); ca != cb {
			return ca < cb
		}
		return a.ID < b.ID
	})
	what := ho.view.whatIf()
	var chosen []*VM
	fitted := false
	for _, vm := range pool {
		what.release(vm)
		chosen = append(chosen, vm)
		if c.pipeline.fits(spec, &what) {
			fitted = true
			break
		}
	}
	if !fitted {
		return nil, 0
	}
	for i := len(chosen) - 1; i >= 0; i-- {
		trial := ho.view.whatIf()
		for j, vm := range chosen {
			if j != i {
				trial.release(vm)
			}
		}
		if c.pipeline.fits(spec, &trial) {
			chosen = append(chosen[:i], chosen[i+1:]...)
		}
	}
	var total float64
	for _, vm := range chosen {
		total += cost(vm)
	}
	return chosen, total
}

// shadowStart is a blocked spec's shadow reservation: the earliest time,
// and the host, at which it fits once the known departures release their
// capacity, replaying each host's departures in time order. charged, when
// non-nil, stands in for its host's view: a backfill candidate admitted
// there first. Ties break to the lower host index. The host is nil when
// spec fits nowhere even after every known departure.
func (c *Cluster) shadowStart(spec *VMSpec, charged *HostView) (sim.Time, *Host) {
	c.refreshViews()
	var bestAt sim.Time
	var best *Host
	for _, ho := range c.hosts {
		from := &ho.view
		if charged != nil && charged.Index == ho.Index {
			from = charged
		}
		what := from.whatIf()
		at, ok := sim.Time(0), c.pipeline.fits(spec, &what)
		if !ok {
			for _, vm := range c.departing(ho) {
				what.release(vm)
				if c.pipeline.fits(spec, &what) {
					at, ok = vm.departAt, true
					break
				}
			}
		}
		if ok && (best == nil || at < bestAt) {
			bestAt, best = at, ho
		}
	}
	return bestAt, best
}

// departing lists a host's residents with a known future departure, in
// (departure time, ID) order. Lifetimes are drawn at arrival, so the
// schedule is exact, not a forecast.
func (c *Cluster) departing(ho *Host) []*VM {
	now := c.engine.Now()
	var deps []*VM
	for _, vm := range ho.VMs {
		if vm.departAt > now && vm.dom != nil && !vm.dom.Destroyed {
			deps = append(deps, vm)
		}
	}
	sort.Slice(deps, func(i, j int) bool {
		if deps[i].departAt != deps[j].departAt {
			return deps[i].departAt < deps[j].departAt
		}
		return deps[i].ID < deps[j].ID
	})
	return deps
}

// delaysHead reports whether admitting spec on hv under plan now could
// delay the blocked head's shadow reservation. A head with no
// reservation, or one on another host, cannot be delayed. On the reserved
// host the reservation is recomputed with the candidate charged
// (conservatively never departing: its lifetime is drawn only at
// admission), and the head must still start no later.
func (c *Cluster) delaysHead(head *VMSpec, hv *HostView, spec *VMSpec, plan MemPlan) bool {
	at, reserved := c.shadowStart(head, nil)
	if reserved == nil || reserved.Index != hv.Index {
		return false
	}
	charged := hv.whatIf()
	charged.admit(spec, plan)
	after, still := c.shadowStart(head, &charged)
	return still == nil || after > at
}

// drainMove is one planned descheduler relocation.
type drainMove struct {
	vm     *VM
	target *Host
}

// planDrain is the descheduler's consolidation search: the emptiest host
// (fewest live VMs, ties to the lower index) whose every resident is
// running and movable and can be re-placed on the other hosts, with the
// moves that empty it. A host with a pinned resident (in cooldown or
// mid-migration) is never drained. The host is nil when no host can be
// fully drained.
func (c *Cluster) planDrain(movable func(*VM) bool) (*Host, []drainMove) {
	c.refreshViews()
	type source struct {
		ho  *Host
		vms []*VM
	}
	var sources []source
	for _, ho := range c.hosts {
		var vms []*VM
		for _, vm := range ho.VMs {
			if vm.state == stateRunning && movable(vm) {
				vms = append(vms, vm)
			}
		}
		if ho.view.VMs > 0 && len(vms) == ho.view.VMs {
			sources = append(sources, source{ho, vms})
		}
	}
	sort.Slice(sources, func(i, j int) bool {
		a, b := sources[i].ho, sources[j].ho
		if a.view.VMs != b.view.VMs {
			return a.view.VMs < b.view.VMs
		}
		return a.Index < b.Index
	})
	for _, src := range sources {
		if moves := c.drainOf(src.ho, src.vms); moves != nil {
			return src.ho, moves
		}
	}
	return nil, nil
}

// drainOf assigns every resident of src, in ID order, to the other host
// with the most free memory after earlier assignments (ties to the lower
// index) that fits it, or returns nil when one fits nowhere. The caller
// re-validates each move against the live pipeline, so an assignment is a
// plan, not a promise. A move is charged to its target largest free node
// first, the shape the pipeline's local and stripe plans prefer, rather
// than with the mem.Take of the plan Place will choose: the charge decides
// which target each later VM of the drain gets, so changing it would move
// the recorded descheduler runs.
func (c *Cluster) drainOf(src *Host, vms []*VM) []drainMove {
	targets := make([]HostView, 0, len(c.hosts)-1)
	for _, ho := range c.hosts {
		if ho != src {
			targets = append(targets, ho.view.whatIf())
		}
	}
	sort.Slice(vms, func(i, j int) bool { return vms[i].ID < vms[j].ID })
	moves := make([]drainMove, 0, len(vms))
	for _, vm := range vms {
		var tgt *HostView
		for i := range targets {
			t := &targets[i]
			if c.pipeline.fits(&vm.Spec, t) && (tgt == nil || t.FreeMB() > tgt.FreeMB()) {
				tgt = t
			}
		}
		if tgt == nil {
			return nil
		}
		for remaining := vm.Spec.MemoryMB; remaining > 0; {
			n, free := tgt.bestNode()
			if free <= 0 {
				break
			}
			take := min(remaining, free)
			tgt.FreePerNodeMB[n] -= take
			remaining -= take
		}
		tgt.GuestVCPUs += vm.Spec.VCPUs
		tgt.VMs++
		moves = append(moves, drainMove{vm, c.hosts[tgt.Index]})
	}
	return moves
}
