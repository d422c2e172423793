package xen

import (
	"context"
	"fmt"
	"slices"

	"vprobe/internal/core"
	"vprobe/internal/mem"
	"vprobe/internal/numa"
	"vprobe/internal/perf"
	"vprobe/internal/pmu"
	"vprobe/internal/sim"
	"vprobe/internal/workload"
)

// EventKind labels a structured scheduling event.
type EventKind string

// Scheduling event kinds.
const (
	// EventDispatch: a VCPU starts a quantum on a PCPU.
	EventDispatch EventKind = "dispatch"
	// EventAppFinish: a VCPU's app completed all its work.
	EventAppFinish EventKind = "app-finish"
	// EventBlock: a VCPU blocked (timer, I/O, barrier, network wait).
	EventBlock EventKind = "block"
	// EventGuestMove: the guest OS parked a thread on another VCPU.
	EventGuestMove EventKind = "guest-move"
)

// Event is one structured scheduling trace record. The typed fields carry
// machine-readable identities; AppendDetail renders the human-readable
// line (the exact line the old string trace hook used to receive). The
// per-quantum kinds, dispatch and block, carry their line as typed fields
// only, so a traced quantum builds no string: the line is rendered when a
// sink or a reader asks for it.
type Event struct {
	At   sim.Time
	Kind EventKind
	// VCPU is the subject VCPU, -1 when the event is not VCPU-scoped.
	VCPU VCPUID
	// CPU is the PCPU involved, -1 when none.
	CPU numa.CPUID
	// Node is the NUMA node involved, numa.NoNode when placement is not
	// part of the event.
	Node numa.NodeID
	// App names the workload on the subject VCPU, when it has one.
	App string
	// Arg is the duration a dispatch or block line reports: the quantum
	// used for a dispatch, the wait for a block. Zero for other kinds.
	Arg sim.Duration
	// Detail is the rendered line of the cold kinds (app finish, guest
	// move). Dispatch and block leave it empty.
	Detail string
}

// String renders the event as a trace line.
func (ev Event) String() string { return string(ev.AppendDetail(nil)) }

// Hypervisor ties the machine model, the performance model, the domains,
// and a scheduling policy into one simulation.
type Hypervisor struct {
	Engine *sim.Engine
	Top    *numa.Topology
	Perf   *perf.System
	Alloc  *mem.Allocator
	RNG    *sim.RNG
	// Config is read as the simulation runs, except for the quantum
	// path's fixed charges, which Start computes from it once.
	Config Config

	Policy  Policy
	PCPUs   []*PCPU
	Domains []*Domain

	// vcpus holds every VCPU in creation order; a VCPU's ID is its index.
	vcpus    []*VCPU
	nextVCPU VCPUID
	nextDom  DomID

	// live is vcpus less the VCPUs retired as terminal, in creation order
	// (see LiveVCPUs); nil until the first retirement, while every VCPU
	// is live. retirePending flags that a destroyed domain's VCPU may
	// have become terminal since the last compaction.
	live          []*VCPU
	retirePending bool
	// runGen moves whenever the set of runnable VCPUs, or a runnable
	// VCPU's phase, may have changed (see RunnableGen).
	runGen uint64

	// Migrator, when non-nil, enables the §VI page-migration extension.
	Migrator *mem.Migrator

	// SampleOverhead accumulates the paper's "overhead time": PMU data
	// collection plus periodical partitioning (Table III).
	SampleOverhead sim.Duration

	watch   []*Domain
	started bool

	// EventFn, when set, receives structured scheduling events. Emission
	// is skipped entirely when nil, so tracing is free when off.
	EventFn func(Event)

	// Tele, when set (AttachTelemetry), is the pre-bound metric handle
	// set. Hot paths guard on nil so telemetry-off runs pay one branch.
	Tele *Telemetry

	placeCursor int

	// running counts the PCPUs with a current VCPU; dispatch and
	// endQuantum, the only writers of PCPU.Current, keep it. The credit
	// tick returns at once while it is zero.
	running int

	// Pending idle kicks, FIFO: each kickIdle call appends the PCPUs idle
	// at call time to kicks, then a nil that ends the batch, and schedules
	// one pooled "kick" event bound to runKicks. kickNext indexes the next
	// batch to fire. The storage is reused once every batch has fired.
	kicks    []*PCPU
	kickNext int
	kickFn   func(*sim.Engine)

	// Reusable steal-path buffers (single-threaded per hypervisor, so one
	// set suffices): QueueViews' node-indexed views, Algorithm 2's scratch,
	// the cached per-node steal visit orders (topology is immutable), and
	// SampleAll's stat buffer.
	views       [][]core.QueueView
	stealBufs   core.StealScratch
	nodeOrders  [][]numa.NodeID
	statScratch []core.Stat

	// req is dispatch's perf.Request, rewritten for every quantum.
	req perf.Request

	// The bookkeeping charges of the quantum path, computed from Config
	// once by Start (see charges): a context switch (with the
	// Perfctr-Xen save/restore when the policy reads the PMU) and one
	// PMU counter read.
	switchCharge charge
	pmuRead      charge
}

// charge is a fixed bookkeeping cost in the form the quantum path adds
// it: cycles and time are what VCPU.AddOverhead would add for it, and
// sample is its share of SampleOverhead (Table III).
type charge struct {
	cycles float64
	time   sim.Duration
	sample sim.Duration
}

// newCharge converts a cost in microseconds with the arithmetic
// VCPU.AddOverhead applies to micros*cpm cycles, so a precomputed charge
// adds the same bits the per-call conversion did.
func newCharge(micros, cpm float64, sample sim.Duration) charge {
	cycles := micros * cpm
	return charge{cycles: cycles, time: sim.Duration(cycles / cpm), sample: sample}
}

// addCharge charges c to v's next quantum and lifetime overhead, and c's
// sample share to the hypervisor's overhead time.
func (h *Hypervisor) addCharge(v *VCPU, c *charge) {
	if c.cycles > 0 {
		v.pendingOverhead += c.cycles
		v.OverheadTime += c.time
	}
	h.SampleOverhead += c.sample
}

// charges computes the quantum path's fixed charges from Config, which
// is final once Start runs.
func (h *Hypervisor) charges() {
	cpm := h.Top.CyclesPerMicrosecond()
	pmu := sim.Duration(h.Config.PMUUpdateMicros)
	h.pmuRead = newCharge(h.Config.PMUUpdateMicros, cpm, pmu)
	h.switchCharge = newCharge(h.Config.ContextSwitchMicros, cpm, 0)
	if h.Policy.UsesPMU() {
		// Perfctr-Xen counter save/restore around the switch.
		h.switchCharge = newCharge(h.Config.ContextSwitchMicros+h.Config.PMUUpdateMicros, cpm, pmu)
	}
}

// ChargePMURead charges one PMU counter read to v: its cycles against
// v's next quantum and its time to the sampling overhead. The charge is
// computed from Config at Start.
func (h *Hypervisor) ChargePMURead(v *VCPU) { h.addCharge(v, &h.pmuRead) }

// New builds a hypervisor on the given topology with a scheduling policy.
func New(top *numa.Topology, policy Policy, cfg Config) *Hypervisor {
	h := &Hypervisor{
		Engine: sim.NewEngine(),
		Top:    top,
		Perf:   perf.NewSystem(top),
		Alloc:  mem.NewAllocator(top),
		RNG:    sim.NewRNG(cfg.Seed),
		Config: cfg,
		Policy: policy,
		runGen: 1, // so a cache stamped with the zero generation starts stale
	}
	// Pre-bind the callbacks once: the quantum and kick hot paths then
	// re-arm timers and pooled events instead of allocating closures.
	h.kickFn = h.runKicks
	for cpu := 0; cpu < top.NumCPUs(); cpu++ {
		p := &PCPU{
			ID:   numa.CPUID(cpu),
			Node: top.NodeOf(numa.CPUID(cpu)),
		}
		p.quantum = h.Engine.NewTimer("quantum", func(*sim.Engine) { h.endQuantum(p) })
		h.PCPUs = append(h.PCPUs, p)
	}
	return h
}

// emit delivers a structured scheduling event of a cold kind (app finish,
// guest move). The Detail line is only formatted when a listener is
// attached; the per-quantum kinds send typed fields instead (see
// detail.go).
func (h *Hypervisor) emit(kind EventKind, vcpu VCPUID, cpu numa.CPUID,
	node numa.NodeID, app, format string, args ...any) {
	if h.EventFn == nil {
		return
	}
	//vet:alloc formatting happens only past the EventFn nil check: tracing is opt-in and off on the benchmarked path
	h.send(kind, vcpu, cpu, node, app, 0, fmt.Sprintf(format, args...))
}

// CreateDomain builds a VM with the given memory size (allocated with the
// given placement policy) and VCPU count. VCPUs start without apps
// (guest-idle, permanently blocked) until AttachApp. It refuses to run
// after Start; dynamic hosts (the cluster layer) use AddDomain +
// ActivateDomain instead.
func (h *Hypervisor) CreateDomain(name string, memMB int64, vcpus int, pol mem.Policy) (*Domain, error) {
	if h.started {
		return nil, fmt.Errorf("xen: CreateDomain after Start")
	}
	return h.AddDomain(name, memMB, vcpus, pol, 0)
}

// AddDomain is CreateDomain without the pre-Start restriction: it builds
// the domain and reserves its memory (honouring preferred for
// mem.PolicyLocal) but does not place its VCPUs. Domains added to a
// running hypervisor stay inert — memory reserved, VCPUs blocked — until
// apps are attached and ActivateDomain is called, which models the
// allocate → build → unpause sequence of a real domain creation or an
// incoming live migration.
func (h *Hypervisor) AddDomain(name string, memMB int64, vcpus int, pol mem.Policy, preferred numa.NodeID) (*Domain, error) {
	if vcpus <= 0 {
		return nil, fmt.Errorf("xen: domain %q with %d VCPUs", name, vcpus)
	}
	dist, err := h.Alloc.Alloc(memMB, pol, preferred)
	if err != nil {
		return nil, fmt.Errorf("xen: domain %q: %w", name, err)
	}
	d := &Domain{ID: h.nextDom, Name: name, MemoryMB: memMB, MemDist: dist}
	h.nextDom++
	for i := 0; i < vcpus; i++ {
		v := &VCPU{
			ID:           h.nextVCPU,
			Dom:          d,
			Counters:     pmu.NewCounters(h.Top.NumNodes()),
			Sampler:      pmu.NewSampler(h.Top.NumNodes()),
			OnPCPU:       -1,
			PinnedPCPU:   -1,
			Priority:     PrioUnder,
			LastSocket:   numa.NoNode,
			NodeAffinity: numa.NoNode,
			AssignedNode: numa.NoNode,
			pendingNode:  numa.NoNode,
		}
		h.nextVCPU++
		v.wakeTimer = h.Engine.NewTimer("wake", func(*sim.Engine) { h.wake(v, v.wakeLast) })
		d.VCPUs = append(d.VCPUs, v)
		h.vcpus = append(h.vcpus, v)
		if h.live != nil {
			h.live = append(h.live, v)
		}
	}
	h.Domains = append(h.Domains, d)
	return d, nil
}

// AttachApp binds an application profile to the domain's idx-th VCPU
// (guest-level thread pinning, one app instance per VCPU).
func (h *Hypervisor) AttachApp(d *Domain, idx int, app *workload.Profile) (*VCPU, error) {
	if idx < 0 || idx >= len(d.VCPUs) {
		return nil, fmt.Errorf("xen: domain %q has no VCPU %d", d.Name, idx)
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	v := d.VCPUs[idx]
	if v.App != nil {
		return nil, fmt.Errorf("xen: VCPU %d already has app %q", v.ID, v.App.Name)
	}
	v.App = app
	h.setPhase(v, app.PhaseAt(v.InstrDone))
	h.runGen++
	return v, nil
}

// Pin hard-pins a VCPU to a PCPU (Fig. 3 calibration setup).
func (h *Hypervisor) Pin(v *VCPU, cpu numa.CPUID) error {
	if int(cpu) < 0 || int(cpu) >= len(h.PCPUs) {
		return fmt.Errorf("xen: pin to invalid PCPU %d", cpu)
	}
	v.PinnedPCPU = cpu
	return nil
}

// WatchDomains makes the simulation stop once every listed domain has
// finished all attached apps.
func (h *Hypervisor) WatchDomains(ds ...*Domain) { h.watch = ds }

// Watched returns the domains WatchDomains set, in its order.
func (h *Hypervisor) Watched() []*Domain { return h.watch }

// AllVCPUs returns every VCPU in creation order.
func (h *Hypervisor) AllVCPUs() []*VCPU { return h.vcpus }

// LiveVCPUs returns the VCPUs that can still run, in creation order:
// every VCPU except those of destroyed domains that are terminal (see
// terminal). A walk that only reads runnable or running VCPUs sees the
// same VCPUs in the same order over this list as over AllVCPUs. The
// list is compacted only when a retirement may be due, not on every call.
// The slice is the hypervisor's own, valid until the next event.
func (h *Hypervisor) LiveVCPUs() []*VCPU {
	if h.retirePending {
		h.retireTerminal()
	}
	if h.live == nil {
		return h.vcpus
	}
	return h.live
}

// retireTerminal drops the terminal VCPUs from the live list, keeping the
// rest in order.
func (h *Hypervisor) retireTerminal() {
	h.retirePending = false
	if h.live == nil {
		//vet:alloc once per hypervisor, at its first teardown; single-host runs that destroy nothing never copy
		h.live = append([]*VCPU(nil), h.vcpus...)
	}
	kept := h.live[:0]
	for _, v := range h.live {
		if !h.terminal(v) {
			//vet:alloc compaction into the list's own backing array; kept starts at live[:0] and can never outgrow it
			kept = append(kept, v)
		}
	}
	clear(h.live[len(kept):])
	h.live = kept
}

// terminal reports that v can never run again: its domain is destroyed,
// it is blocked, and no PCPU holds it, as current or on its run queue. A
// destroyed VCPU that is still current (DestroyDomain's stop step marked
// it blocked mid-quantum) is not terminal: endQuantum may requeue it. The
// PCPUs are scanned rather than read off OnPCPU, so the answer rests on
// the run queues themselves.
func (h *Hypervisor) terminal(v *VCPU) bool {
	if !v.Dom.Destroyed || v.State != StateBlocked {
		return false
	}
	for _, p := range h.PCPUs {
		if p.Current == v || slices.Contains(p.queue, v) {
			return false
		}
	}
	return true
}

// RunnableGen returns the runnable generation: a counter that moves
// whenever the set of runnable VCPUs, or a runnable VCPU's phase, may
// have changed. A value derived from runnable VCPUs' phases (the
// cluster's LLC pressure) stays valid while the generation is unchanged.
// It may move when nothing changed, never the other way round.
func (h *Hypervisor) RunnableGen() uint64 { return h.runGen }

// Running returns how many PCPUs have a current VCPU; zero means every
// PCPU is idle.
func (h *Hypervisor) Running() int { return h.running }

// ActiveVCPUs counts runnable or running VCPUs.
func (h *Hypervisor) ActiveVCPUs() int {
	n := 0
	for _, v := range h.LiveVCPUs() {
		if v.State == StateRunnable || v.State == StateRunning {
			n++
		}
	}
	return n
}

// Start performs initial placement and arms the tickers. It must be called
// exactly once before Run.
func (h *Hypervisor) Start() error {
	if h.started {
		return fmt.Errorf("xen: Start called twice")
	}
	h.started = true
	h.charges()

	for _, d := range h.Domains {
		h.placeDomain(d)
	}

	// Credit tick: debit running VCPUs, fire policy tick hook. An idle
	// host has no running VCPU to debit.
	h.Engine.Every(h.Config.TickPeriod, h.Config.TickPeriod, "tick", func(*sim.Engine) {
		if h.running == 0 {
			return
		}
		for _, p := range h.PCPUs {
			if p.Current == nil {
				continue
			}
			p.Current.Credits -= h.Config.CreditsPerTick
			if p.Current.Credits < -h.Config.CreditCap {
				p.Current.Credits = -h.Config.CreditCap
			}
			if p.Current.Credits < 0 {
				p.Current.Priority = PrioOver
			}
			h.Policy.OnTick(h, p.Current)
		}
	})

	// Credit accounting + contention epoch.
	h.Engine.Every(h.Config.AccountPeriod, h.Config.AccountPeriod, "account", func(e *sim.Engine) {
		h.accountCredits()
		h.Perf.EndEpoch(e.Now())
	})

	// Sampling period for PMU-driven policies.
	if period := h.Policy.Period(); period > 0 {
		h.Engine.Every(period, period, "period", func(*sim.Engine) {
			h.Policy.OnPeriod(h)
		})
	}

	// Guest-OS thread re-placement: inside each VM, threads occasionally
	// park on different VCPUs. Invisible to the hypervisor except through
	// the PMU signature changing under it.
	if h.Config.GuestThreadMigrationMean > 0 {
		for _, d := range h.Domains {
			h.armGuestMigration(d)
		}
	}

	// First dispatch: every PCPU is idle, so this is one batch of all.
	h.kickIdle()
	return nil
}

// placeDomain performs initial placement of a domain's app-carrying VCPUs:
// each lands on a seeded random permutation of the PCPUs — a freshly
// booted guest's thread layout has no node balance guarantee, which is
// what leaves unbalanced LLC pressure for the partitioning mechanism to
// repair.
//
// Page placement is deferred: an app allocates during its first-touch
// window, accessing the VM-wide layout meanwhile; its pages then
// concentrate on the node where it actually ran (see finishFirstTouch).
func (h *Hypervisor) placeDomain(d *Domain) {
	d.activated = true
	h.runGen++
	perm := h.RNG.Perm(len(h.PCPUs))
	slot := 0
	for _, v := range d.VCPUs {
		if v.App == nil {
			continue
		}
		var p *PCPU
		if v.PinnedPCPU >= 0 {
			p = h.PCPUs[v.PinnedPCPU]
		} else {
			p = h.PCPUs[perm[slot%len(perm)]]
			slot++
		}
		v.StartNode = p.Node
		v.PageDist = d.MemDist.CloneInto(v.PageDist)
		v.nodeTime = make([]sim.Duration, h.Top.NumNodes())
		v.State = StateRunnable
		p.Enqueue(v)
		vv := v
		h.Engine.Schedule(h.Config.FirstTouchDelay, "first-touch", func(*sim.Engine) {
			h.finishFirstTouch(vv)
		})
	}
}

// armGuestMigration schedules the recurring guest-thread re-placement
// events for one domain.
func (h *Hypervisor) armGuestMigration(d *Domain) {
	var arm func(*sim.Engine)
	arm = func(*sim.Engine) {
		if d.Destroyed {
			return
		}
		h.swapGuestThreads(d)
		wait := sim.Duration(h.RNG.Exp(float64(h.Config.GuestThreadMigrationMean)))
		if wait < sim.Millisecond {
			wait = sim.Millisecond
		}
		h.Engine.Schedule(wait, "guest-migrate", arm)
	}
	wait := sim.Duration(h.RNG.Exp(float64(h.Config.GuestThreadMigrationMean)))
	h.Engine.Schedule(wait, "guest-migrate", arm)
}

// ActivateDomain places a domain added (via AddDomain) after Start: its
// app-carrying VCPUs enter run queues, first-touch windows open, the
// guest-thread migration timer arms, and idle PCPUs are kicked to pick the
// new work up. Domains present before Start are activated by Start itself.
func (h *Hypervisor) ActivateDomain(d *Domain) error {
	if !h.started {
		return fmt.Errorf("xen: ActivateDomain before Start")
	}
	if d.activated {
		return fmt.Errorf("xen: domain %q already activated", d.Name)
	}
	if d.Destroyed {
		return fmt.Errorf("xen: domain %q is destroyed", d.Name)
	}
	h.placeDomain(d)
	if h.Config.GuestThreadMigrationMean > 0 {
		h.armGuestMigration(d)
	}
	h.kickIdle()
	return nil
}

// accountCredits is the 30ms credit-accounting tick, a per-quantum root
// of the allocation-free contract.
//
//vprobe:hotpath
func (h *Hypervisor) accountCredits() {
	active := h.ActiveVCPUs()
	if active == 0 {
		return
	}
	// Total credits minted per accounting period: CreditsPerTick per
	// tick per PCPU, shared equally among active VCPUs (all domains
	// have equal weight in the paper's experiments).
	ticks := int(h.Config.AccountPeriod / h.Config.TickPeriod)
	total := ticks * h.Config.CreditsPerTick * len(h.PCPUs)
	share := total / active
	for _, v := range h.LiveVCPUs() {
		if v.State != StateRunnable && v.State != StateRunning {
			continue
		}
		v.Credits += share
		if v.Credits > h.Config.CreditCap {
			v.Credits = h.Config.CreditCap
		}
		if v.State != StateRunning && v.Priority != PrioBoost {
			v.Priority = priorityFromCredits(v)
		}
	}
	h.repickRunning()
}

// repickRunning models csched_vcpu_acct's periodic _csched_cpu_pick: at
// every accounting period, each running VCPU re-evaluates its placement
// and migrates (at quantum end) toward the least-loaded PCPU if that is
// distinctly better. In stock Credit the candidate set spans the whole
// machine — NUMA-obliviously bouncing memory-intensive VCPUs across
// sockets; NUMA-aware policies (vProbe, LB) restrict it to the local node
// so only partitioning or explicit remote stealing crosses sockets.
func (h *Hypervisor) repickRunning() {
	aware := h.Policy.NUMAAwareBalance()
	for _, p := range h.PCPUs {
		v := p.Current
		if v == nil || v.PinnedPCPU >= 0 || v.pendingNode != numa.NoNode {
			continue
		}
		if h.RNG.Float64() >= h.Config.RepickProb {
			continue
		}
		// Index-based candidate scan: same visit order as the old
		// throwaway candidate slice, without building it.
		var best *PCPU
		if aware {
			for _, cpu := range h.Top.CPUsOf(p.Node) {
				q := h.PCPUs[cpu]
				if q == p {
					continue
				}
				if best == nil || q.Workload < best.Workload {
					best = q
				}
			}
		} else {
			for _, q := range h.PCPUs {
				if q == p {
					continue
				}
				if best == nil || q.Workload < best.Workload {
					best = q
				}
			}
		}
		if best != nil && best.Workload+1 < p.Workload {
			v.pendingNode = best.Node
		}
	}
}

// schedule dispatches the next VCPU on p if p is idle.
//
//vprobe:hotpath
func (h *Hypervisor) schedule(p *PCPU) {
	if p.Current != nil {
		return
	}
	v := h.Policy.PickNext(h, p)
	if v == nil {
		h.markIdle(p)
		return
	}
	if p.idle {
		p.IdleTime += h.Engine.Now().Sub(p.IdleSince)
		p.idle = false
	}
	h.dispatch(p, v)
}

// markIdle starts p's idle period, unless one is already running.
func (h *Hypervisor) markIdle(p *PCPU) {
	if !p.idle {
		p.idle = true
		p.IdleSince = h.Engine.Now()
	}
}

func (h *Hypervisor) dispatch(p *PCPU, v *VCPU) {
	if p.lastVCPU != v {
		v.Switches++
		h.addCharge(v, &h.switchCharge)
	}
	if v.OnPCPU != p.ID && v.OnPCPU >= 0 {
		v.Migrations++
	}
	if v.LastSocket != p.Node {
		if v.LastSocket != numa.NoNode {
			// Cross-socket move: the hot set must be refetched.
			if ph := v.Phase(); ph != nil {
				v.ColdLines = h.Perf.ColdLinesFor(ph)
			}
			v.NodeMoves++
		}
		v.LastSocket = p.Node
	}

	v.State = StateRunning
	v.OnPCPU = p.ID
	p.Current = v
	h.running++
	if v.Priority == PrioBoost {
		v.Priority = priorityFromCredits(v)
	}

	// Every field is written, one at a time: a composite literal would
	// be built on the stack and block-copied into the buffer.
	req := &h.req
	req.Profile = v.App
	req.Phase = v.phase
	req.Quantum = h.Config.Timeslice
	req.RunNode = p.Node
	req.PageDist = v.PageDist
	req.CoRunnerRPTI = h.coRunnerRPTI(p, v)
	req.ColdLines = v.ColdLines
	req.OverheadCycles = v.pendingOverhead
	req.MaxInstructions = v.RemainingInstructions()
	if v.App.Endless() {
		req.MaxInstructions = 0
	}
	if v.App.BurstMicros > 0 {
		if b := sim.Duration(v.App.BurstMicros); b < req.Quantum {
			req.Quantum = b
		}
	}
	v.pendingOverhead = 0

	// Optional page migration extension: pages drift toward the node the
	// VCPU runs on, at a CPU cost charged to this quantum.
	if h.Migrator != nil {
		cycles := h.Migrator.Step(v.PageDist, p.Node, h.Config.Timeslice, v.App.FootprintMB)
		req.OverheadCycles += cycles
	}

	// The outcome lands in the VCPU's reusable buffer; the flight state
	// and the quantum-end timer are the PCPU's own, so the whole dispatch
	// is allocation-free in steady state.
	h.Perf.ExecuteInto(&v.out, req)
	out := &v.out
	if out.Used <= 0 {
		out.Used = sim.Microsecond
	}
	if h.Tele != nil {
		h.Tele.Dispatches.Inc()
	}
	if h.EventFn != nil {
		h.emitDispatch(p, v, out.Used)
	}
	p.flight = flight{v: v, origCold: v.ColdLines, start: h.Engine.Now()}
	p.quantum.Arm(out.Used)
}

// flight is one in-progress quantum (active while v != nil). The outcome
// lives in v.out and the deadline in the owning PCPU's quantum timer.
type flight struct {
	v        *VCPU
	origCold float64
	start    sim.Time
}

// priorityFromCredits maps a credit balance to UNDER/OVER.
func priorityFromCredits(v *VCPU) Priority {
	if v.Credits >= 0 {
		return PrioUnder
	}
	return PrioOver
}

// preempt truncates the quantum in flight on p (a BOOST wakeup arrived).
// The partial work is accounted proportionally and the displaced VCPU is
// requeued; p then reschedules, picking up the BOOST VCPU. The quantum
// timer stays armed through endQuantum, so the next dispatch re-keys it
// in place; it is stopped only when p goes idle instead.
func (h *Hypervisor) preempt(p *PCPU) {
	if p.flight.v == nil {
		return
	}
	h.endQuantum(p)
	if p.Current == nil {
		p.quantum.Stop()
	}
}

// setPhase sets v's cached phase and the two RPTI terms coRunnerRPTI
// reads: the phase's RPTI while v runs, and its QueuedLLCWeight product
// while v waits. Both are zero without a phase.
func (h *Hypervisor) setPhase(v *VCPU, ph *workload.Phase) {
	v.phase = ph
	v.rpti, v.queuedRPTI = 0, 0
	if ph != nil {
		v.rpti = ph.RPTI
		v.queuedRPTI = h.Config.QueuedLLCWeight * ph.RPTI
	}
}

// coRunnerRPTI sums the reference intensity competing with v for p's
// socket LLC during this quantum: other VCPUs currently executing on the
// socket at full weight, plus VCPUs queued on the socket's PCPUs at
// QueuedLLCWeight — their cache residency persists across the time-slicing
// even while they wait. A VCPU without a phase adds +0, which leaves the
// sum's bits unchanged.
func (h *Hypervisor) coRunnerRPTI(p *PCPU, v *VCPU) float64 {
	var sum float64
	for _, cpu := range h.Top.CPUsOf(p.Node) {
		q := h.PCPUs[cpu]
		if c := q.Current; q != p && c != nil && c != v {
			sum += c.rpti
		}
		for _, w := range q.queue {
			if w != v {
				sum += w.queuedRPTI
			}
		}
	}
	return sum
}

// endQuantum retires the quantum in flight on p: execution accounting,
// preemption bookkeeping, and the next dispatch.
//
//vprobe:hotpath
func (h *Hypervisor) endQuantum(p *PCPU) {
	if p.flight.v == nil || p.Current != p.flight.v {
		return
	}
	v := p.flight.v
	origCold := p.flight.origCold
	start := p.flight.start
	p.flight.v = nil
	// out is the VCPU's reusable outcome buffer, scaled in place on
	// preemption; nothing reads it after this function consumes it.
	out := &v.out
	preempted := false
	if elapsed := h.Engine.Now().Sub(start); elapsed < out.Used {
		// Preempted mid-quantum: account the completed fraction.
		preempted = true
		frac := float64(elapsed) / float64(out.Used)
		out.Instructions *= frac
		out.Cycles *= frac
		out.LLCRef *= frac
		out.LLCMiss *= frac
		out.Remote *= frac
		for i := range out.Node {
			out.Node[i] *= frac
		}
		out.ColdLines = origCold + (out.ColdLines-origCold)*frac
		out.Used = elapsed
	}
	d := pmu.Delta{
		Instructions: out.Instructions,
		Cycles:       out.Cycles,
		LLCRef:       out.LLCRef,
		LLCMiss:      out.LLCMiss,
		Node:         out.Node,
		Remote:       out.Remote,
	}
	v.Counters.Add(&d)
	h.Perf.Record(out, p.Node)
	v.InstrDone += out.Instructions
	if ph := v.App.PhaseAt(v.InstrDone); ph != v.phase {
		h.setPhase(v, ph)
		h.runGen++
	}
	v.ColdLines = out.ColdLines
	v.RunTime += out.Used
	if !v.firstTouched && v.nodeTime != nil {
		v.nodeTime[p.Node] += out.Used
	}
	if v.firstTouched && v.App.PageDriftPerSecond > 0 {
		v.PageDist.ShiftToward(p.Node, v.App.PageDriftPerSecond*out.Used.Seconds())
	}
	p.BusyTime += out.Used
	p.Current = nil
	h.running--
	p.lastVCPU = v
	if h.Tele != nil {
		h.Tele.QuantumUS.Observe(float64(out.Used))
	}

	finished := !v.App.Endless() && v.RemainingInstructions() <= 0.5
	switch {
	case finished:
		v.Done = true
		v.FinishTime = h.Engine.Now()
		v.State = StateBlocked
		v.OnPCPU = -1
		h.runGen++
		h.retirePending = h.retirePending || v.Dom.Destroyed
		if h.EventFn != nil {
			// Guarded at the call site, not just inside emit: boxing the
			// variadic args allocates before emit's own nil check runs.
			//vet:alloc args box only on the traced path, once per app lifetime
			h.emit(EventAppFinish, v.ID, p.ID, p.Node, v.App.Name,
				"vcpu%d (%s) finished", v.ID, v.App.Name)
		}
		h.checkWatch()
	case !preempted && v.App.BlockProb > 0 && h.RNG.Float64() < v.App.BlockProb:
		// The guest blocks (timer, I/O, barrier, network wait). The
		// VCPU leaves the run queues; its wakeup re-enqueues it where
		// it last ran, and idle PCPUs may steal it from there — the
		// churn that makes load-balance policy matter.
		v.State = StateBlocked
		h.runGen++
		h.retirePending = h.retirePending || v.Dom.Destroyed
		wait := sim.Duration(h.RNG.Exp(v.App.BlockMicrosMean))
		if wait < sim.Microsecond {
			wait = sim.Microsecond
		}
		if h.EventFn != nil {
			h.emitBlock(p, v, wait)
		}
		v.wakeLast = p
		v.wakeTimer.Arm(wait)
	default:
		target := p
		switch {
		case v.PinnedPCPU >= 0:
			target = h.PCPUs[v.PinnedPCPU]
		case v.pendingNode != numa.NoNode:
			target = h.leastLoadedPCPU(v.pendingNode)
			v.pendingNode = numa.NoNode
		}
		if v.State == StateBlocked {
			// DestroyDomain's stop step marked v blocked while it was
			// still current; the requeue makes it runnable again.
			h.runGen++
		}
		v.Priority = priorityFromCredits(v)
		h.enqueue(target, v)
		if target != p {
			h.kickIdle()
		}
	}
	h.schedule(p)
}

// wake re-enqueues a blocked VCPU on the PCPU it last ran on (pinned
// VCPUs on their pin; a pending partition assignment is honoured) with
// Xen's BOOST priority: it preempts a lower-priority runner on the target
// PCPU immediately, which keeps short housekeeping bursts from languishing
// in queues.
//
//vprobe:hotpath
func (h *Hypervisor) wake(v *VCPU, last *PCPU) {
	if v.Done || v.Dom.Destroyed || v.State != StateBlocked || v.App == nil {
		return
	}
	target := last
	switch {
	case v.PinnedPCPU >= 0:
		target = h.PCPUs[v.PinnedPCPU]
	case v.pendingNode != numa.NoNode:
		target = h.leastLoadedPCPU(v.pendingNode)
		v.pendingNode = numa.NoNode
	}
	v.Priority = PrioBoost
	h.enqueue(target, v)
	h.runGen++
	if target.Current != nil && target.Current.Priority > PrioBoost {
		h.preempt(target)
	} else {
		h.kickIdle()
		h.schedule(target)
	}
}

// swapGuestThreads models the guest scheduler moving a busy thread onto a
// previously housekeeping-only VCPU of the same domain. The thread's state
// (progress, pages, counters) travels with it; the VCPUs' hypervisor-side
// scheduling state (queue position, credits, measured characteristics)
// stays put — so the analyzer's view of both VCPUs is stale until the next
// sampling period.
func (h *Hypervisor) swapGuestThreads(d *Domain) {
	var apps, parks []*VCPU
	for _, v := range d.VCPUs {
		if v.App == nil || v.State == StateRunning || v.PinnedPCPU >= 0 || v.Done {
			continue
		}
		if v.App.BurstMicros > 0 {
			parks = append(parks, v)
		} else if v.App.Server {
			// Request-driven threads park elsewhere routinely (wake
			// balancing); CPU-bound batch threads only occasionally.
			apps = append(apps, v)
		} else if !v.App.Endless() && h.RNG.Float64() < h.Config.BatchMigrationFraction {
			apps = append(apps, v)
		}
	}
	if len(apps) == 0 || len(parks) == 0 {
		return
	}
	a := apps[h.RNG.Intn(len(apps))]
	b := parks[h.RNG.Intn(len(parks))]
	h.runGen++
	a.App, b.App = b.App, a.App
	a.InstrDone, b.InstrDone = b.InstrDone, a.InstrDone
	pa, pb := a.phase, b.phase
	h.setPhase(a, pb)
	h.setPhase(b, pa)
	a.Counters, b.Counters = b.Counters, a.Counters
	a.Sampler, b.Sampler = b.Sampler, a.Sampler
	a.PageDist, b.PageDist = b.PageDist, a.PageDist
	a.ColdLines, b.ColdLines = b.ColdLines, a.ColdLines
	a.firstTouched, b.firstTouched = b.firstTouched, a.firstTouched
	a.nodeTime, b.nodeTime = b.nodeTime, a.nodeTime
	// The thread arrives with a cold cache on its new VCPU's socket.
	if ph := b.Phase(); ph != nil {
		b.ColdLines = h.Perf.ColdLinesFor(ph)
	}
	h.emit(EventGuestMove, b.ID, -1, numa.NoNode, b.App.Name,
		"guest %s: thread %s moved vcpu%d -> vcpu%d", d.Name, b.App.Name, a.ID, b.ID)
}

// finishFirstTouch settles an app's page placement at the end of its
// allocation window: pages concentrate (by FirstTouchLocality) on the node
// where the VCPU spent the most run time, masked by the VM's actual
// machine-memory layout.
func (h *Hypervisor) finishFirstTouch(v *VCPU) {
	if v.firstTouched || v.App == nil || v.Done {
		return
	}
	v.firstTouched = true
	node := v.StartNode
	var best sim.Duration = -1
	for n, t := range v.nodeTime {
		if t > best {
			best = t
			node = numa.NodeID(n)
		}
	}
	v.PageDist = mem.FirstTouchInto(v.PageDist, v.Dom.MemDist, node, h.Config.FirstTouchLocality)
}

// enqueue timestamps the VCPU for cache-hot protection and inserts it.
func (h *Hypervisor) enqueue(p *PCPU, v *VCPU) {
	v.lastQueuedAt = h.Engine.Now()
	p.Enqueue(v)
}

// cacheHot reports whether v ran too recently to be stolen.
func (h *Hypervisor) cacheHot(v *VCPU) bool {
	return float64(h.Engine.Now().Sub(v.lastQueuedAt)) < h.Config.CacheHotMicros
}

// checkWatch stops the engine when all watched domains are done.
func (h *Hypervisor) checkWatch() {
	if len(h.watch) == 0 {
		return
	}
	for _, d := range h.watch {
		if !d.AllDone() {
			return
		}
	}
	h.Engine.Stop()
}

// kickIdle re-dispatches every PCPU idle now (new work may have
// appeared): it records them as one batch and schedules one "kick" event
// that runs schedule on each, in PCPU order. A PCPU that goes idle later
// in the same instant is not in the batch.
func (h *Hypervisor) kickIdle() {
	start := len(h.kicks)
	for _, p := range h.PCPUs {
		if p.Current == nil {
			//vet:alloc kicks is reused once every pending batch has fired; grows to the peak pending kicks during warmup
			h.kicks = append(h.kicks, p)
		}
	}
	if len(h.kicks) == start {
		return
	}
	//vet:alloc the batch end shares kicks' reused storage
	h.kicks = append(h.kicks, nil)
	h.Engine.Schedule(0, "kick", h.kickFn)
}

// runKicks fires the oldest pending kick batch. The batches of one
// instant fire in the order kickIdle recorded them, nothing firing
// between them, so this is the schedule one event per PCPU would make.
// When no PCPU of the host has a queued VCPU, every PickNext would return
// nil and change nothing (the Policy contract), so the batch only marks
// its still-idle PCPUs idle, as schedule would.
//
//vprobe:hotpath
func (h *Hypervisor) runKicks(*sim.Engine) {
	batch := h.kicks[h.kickNext:]
	batch = batch[:slices.Index(batch, nil)]
	h.kickNext += len(batch) + 1
	if h.othersQueued(nil, false) {
		for _, p := range batch {
			h.schedule(p)
		}
	} else {
		for _, p := range batch {
			if p.Current == nil {
				h.markIdle(p)
			}
		}
	}
	if h.kickNext == len(h.kicks) {
		h.kicks = h.kicks[:0]
		h.kickNext = 0
	}
}

// leastLoadedPCPU returns the PCPU on node with the smallest Workload
// (ties toward the lowest id).
func (h *Hypervisor) leastLoadedPCPU(node numa.NodeID) *PCPU {
	var best *PCPU
	for _, cpu := range h.Top.CPUsOf(node) {
		p := h.PCPUs[cpu]
		if best == nil || p.Workload < best.Workload {
			best = p
		}
	}
	return best
}

// MigrateToNode moves a VCPU toward a node: queued VCPUs move immediately
// to the node's least-loaded PCPU; running VCPUs migrate when their
// current quantum ends. Pinned VCPUs never move.
func (h *Hypervisor) MigrateToNode(v *VCPU, node numa.NodeID) {
	if v.PinnedPCPU >= 0 || int(node) < 0 || int(node) >= h.Top.NumNodes() {
		return
	}
	switch v.State {
	case StateRunning:
		if h.PCPUs[v.OnPCPU].Node != node {
			v.pendingNode = node
		}
	case StateRunnable:
		cur := h.PCPUs[v.OnPCPU]
		if cur.Node == node {
			return
		}
		if cur.Remove(v) {
			h.enqueue(h.leastLoadedPCPU(node), v)
			h.kickIdle()
		}
	}
}

// Run advances the simulation until the horizon or until watched domains
// complete, and returns the stop time.
func (h *Hypervisor) Run(horizon sim.Duration) sim.Time {
	//vet:ctx compat wrapper for pre-context callers; a background context never cancels
	end, err := h.RunContext(context.Background(), horizon)
	if err != nil {
		panic(err) // background context never cancels; only Start can fail
	}
	return end
}

// RunContext is Run with cooperative cancellation: the engine polls ctx
// periodically and a cancelled context halts the simulation, returning the
// clock position the run was interrupted at together with the context's
// error. Start errors are returned rather than panicking.
func (h *Hypervisor) RunContext(ctx context.Context, horizon sim.Duration) (sim.Time, error) {
	if !h.started {
		if err := h.Start(); err != nil {
			return h.Engine.Now(), err
		}
	}
	_, err := h.Engine.RunUntilContext(ctx, sim.Time(horizon))
	return h.Engine.Now(), err
}

// TotalBusyTime sums PCPU busy time (the Table III denominator).
func (h *Hypervisor) TotalBusyTime() sim.Duration {
	var t sim.Duration
	for _, p := range h.PCPUs {
		t += p.BusyTime
	}
	return t
}

// OverheadFraction returns the paper's Table III metric: overhead time as
// a fraction of total execution time.
func (h *Hypervisor) OverheadFraction() float64 {
	busy := h.TotalBusyTime()
	if busy <= 0 {
		return 0
	}
	return float64(h.SampleOverhead) / float64(busy)
}
