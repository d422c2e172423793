// Package cluster is the datacenter layer above internal/xen: N
// independent hosts — each a full hypervisor simulation with its own NUMA
// topology, per-host scheduler, and seeded RNG — receiving a dynamic
// stream of VM arrivals and departures. Placement runs through a
// kube-style two-phase Filter/Score plugin pipeline (see Pipeline) with
// pluggable named policies; rejected VMs retry with linear backoff; and a
// rebalancer live-migrates VMs off hosts whose aggregate LLC pressure or
// remote-access ratio crosses a threshold, pricing each move by the VM's
// memory footprint.
//
// Determinism: the cluster owns one discrete-event engine for
// cluster-level events (arrivals, retries, departures, rebalance ticks,
// migration completions). Between cluster mutations the hosts are
// mutually independent, so a host is advanced only when its state is read
// or written: a mutation catches up its own host (touch), a placement the
// hosts whose views can still move (refreshViews), and the rebalancer,
// the descheduler, the telemetry sample and the final report every host
// with an event due (syncHosts), in parallel (harness.Map). An advance
// split into different chunks fires the same events in the same order,
// so results are byte-identical at every worker count. Host seeds
// derive from the cluster seed by name (harness.DeriveSeed), so adding a
// host never reshuffles the others' streams.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"

	"vprobe/internal/harness"
	"vprobe/internal/mem"
	"vprobe/internal/numa"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
	"vprobe/internal/telemetry"
	"vprobe/internal/workload"
	"vprobe/internal/xen"
)

// Config parameterises a cluster run. Zero values select the defaults
// noted on each field.
type Config struct {
	// Hosts is the host count (default 4).
	Hosts int
	// Topology describes the machine every host simulates (default: the
	// zero value, which selects numa.XeonE5620, the paper's Table I box).
	// New builds it once and rejects a description numa.New rejects.
	Topology numa.Config
	// Scheduler is the per-host scheduling policy (default credit).
	Scheduler sched.Kind
	// Policy is the placement policy name (default "numa"; see Policies).
	Policy string
	// Seed drives arrivals, workload mixes, and per-host streams
	// (default 1).
	Seed uint64
	// ArrivalsPerSecond is the Poisson arrival rate (default 0.35).
	ArrivalsPerSecond float64
	// MeanLifetime is the mean of the exponential VM lifetime, measured
	// from first placement (default 60 s).
	MeanLifetime sim.Duration
	// Horizon is the simulated duration of the run (default 300 s).
	Horizon sim.Duration
	// Workers bounds the goroutines advancing hosts in parallel
	// (<= 0 means GOMAXPROCS).
	Workers int
	// Mix selects the workload mix: "mixed" (default), "batch", or
	// "server".
	Mix string
	// RebalancePeriod is the rebalancer tick (default 10 s; < 0
	// disables).
	RebalancePeriod sim.Duration
	// LLCPressureLimit triggers migration off a host whose per-socket
	// LLC pressure sum exceeds it (default DefaultLLCPressureLimit, ~2.5
	// thrashing apps per socket).
	LLCPressureLimit float64
	// Preempt lets above-best-effort arrivals evict a minimal set of
	// strictly-lower-priority VMs when no host fits them outright
	// (default off). Victims are live-migrated when any other host fits
	// them, else killed and requeued with their remaining lifetime.
	Preempt bool
	// Gang admits multi-VM groups all-or-nothing (default off). With Gang
	// off, gang-generated members are admitted independently — the
	// arrival stream is identical either way, which is what makes
	// mechanism comparisons equal-load.
	Gang bool
	// GangFraction is the probability an arrival is a whole gang of
	// GangSize VMs rather than a single VM (default 0: no gangs).
	GangFraction float64
	// GangSize is the number of VMs per generated gang (default 3).
	GangSize int
	// Backfill lets a strictly smaller, strictly lower-priority single VM
	// jump the blocked admission queue into a fragmentation hole when the
	// shadow-placement check proves the jump cannot delay the blocked
	// head (default off).
	Backfill bool
	// DeschedulePeriod is the descheduler tick (default 0: disabled). Each
	// tick may drain one near-empty host during low load, consolidating
	// fragmented free memory.
	DeschedulePeriod sim.Duration
	// Arrival selects and parameterises the arrival generator (default:
	// Poisson at ArrivalsPerSecond). See ArrivalConfig.
	Arrival ArrivalConfig
	// Arrivals, when set, receives the run's offered load as a replayable
	// JSONL trace: one TraceArrival line per arriving VM, in arrival order.
	// The first failed write stops the run with its error; otherwise
	// attaching it never changes simulation results.
	Arrivals io.Writer
	// PlaceCheck cross-validates every incremental placement decision
	// against a full rescan of freshly built views and stops the run on
	// the first divergence (default off; costs O(hosts) per decision).
	PlaceCheck bool
	// Events, when set, receives cluster-scoped events.
	Events func(Event)
	// Telemetry, when set, collects the cluster's metric series:
	// admission/migration gauges plus every host's full xen series tagged
	// host="hostN". The sampler must be fresh (not yet started); Run
	// starts it on the cluster engine. Attaching telemetry never changes
	// simulation results.
	Telemetry *telemetry.Sampler
	// Spans, when set, records the placement flight recorder: VM
	// lifecycle, placement decisions with per-plugin filter/score
	// provenance, and migration/preemption/gang/backfill/deschedule
	// chains (see spans.go). The tracer must be fresh. Attaching spans
	// never changes simulation results: recording is read-only over
	// model state and happens only on the cluster engine goroutine, so
	// both the simulation output and the span file are byte-identical at
	// every worker count.
	Spans *telemetry.Tracer
}

// DefaultLLCPressureLimit is Config.LLCPressureLimit's default.
const DefaultLLCPressureLimit = 50

// Fixed policy constants: no run sets them to another value.
const (
	// maxRetries is how many placement retries a VM gets before it is
	// rejected for good.
	maxRetries = 3
	// retryBackoff is the base retry delay; attempt k waits k*backoff.
	retryBackoff = 5 * sim.Second
	// remoteRatioLimit triggers migration off a host whose remote-access
	// ratio over the last rebalance interval exceeds it.
	remoteRatioLimit = 0.45
	// overcommit is the VCPU overcommit factor per host.
	overcommit = 3.0
	// descheduleUtilLimit gates the descheduler: it runs only while the
	// cluster-wide VCPU commitment fraction is at or below this limit.
	descheduleUtilLimit = 0.4
)

// migrationCooldown is the minimum time after a VM's (re)placement before
// the rebalancer or the descheduler may move it: two rebalance periods,
// or none when the rebalancer is disabled.
func (c Config) migrationCooldown() sim.Duration {
	if c.RebalancePeriod > 0 {
		return 2 * c.RebalancePeriod
	}
	return 0
}

// normalized fills defaults.
func (c Config) normalized() Config {
	if c.Hosts <= 0 {
		c.Hosts = 4
	}
	if c.Scheduler == "" {
		c.Scheduler = sched.KindCredit
	}
	if c.Policy == "" {
		c.Policy = "numa"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ArrivalsPerSecond <= 0 {
		c.ArrivalsPerSecond = 0.35
	}
	if c.MeanLifetime <= 0 {
		c.MeanLifetime = 60 * sim.Second
	}
	if c.Horizon <= 0 {
		c.Horizon = 300 * sim.Second
	}
	if c.Mix == "" {
		c.Mix = "mixed"
	}
	if c.RebalancePeriod == 0 {
		c.RebalancePeriod = 10 * sim.Second
	}
	if c.LLCPressureLimit <= 0 {
		c.LLCPressureLimit = DefaultLLCPressureLimit
	}
	if c.GangSize <= 0 {
		c.GangSize = 3
	}
	c.Arrival = c.Arrival.normalized(c.Horizon)
	return c
}

// Cluster is one multi-host simulation.
type Cluster struct {
	cfg      Config
	engine   *sim.Engine
	arrRNG   *sim.RNG // arrival process and lifetimes
	mixRNG   *sim.RNG // VM composition (size class, workloads)
	hosts    []*Host
	pipeline *Pipeline
	migrator *mem.Migrator
	vms      []*VM

	// queue is the admission queue of pending units (see controlplane.go);
	// unitSeq numbers units in creation order for the final tiebreak.
	// gangSeq numbers generated gangs: it advances with the generator, not
	// the admission machinery, so group names are mechanism-independent.
	queue   []*admitUnit
	unitSeq int
	gangSeq int
	// tel is the telemetry handle set (nil when telemetry is off).
	tel *clusterTelemetry
	// spans is the flight recorder (nil when span tracing is off).
	spans *clusterSpans

	// Incremental placement engine state (incremental.go, scorecache.go):
	// viewSlice[i] points at hosts[i].view and never changes after New;
	// refreshList holds the hosts that may need a view refresh; scores is
	// the per-class score cache; oneView is the reusable single-host
	// slice for restricted Place calls; reserved holds the hosts a gang
	// reserve has deducted from, with their inputs before it
	// (controlplane.go), and is empty outside tryAdmitGang.
	viewSlice   []*HostView
	refreshList []*Host
	scores      *scoreCache
	oneView     [1]*HostView
	reserved    []reservedHost

	// Per-tick scratch, reused per the caller-owned-scratch convention:
	// rebalance's hot flags and cool-view list, evictVictim's alternative
	// views, and the queue-drain order.
	hotScratch   []bool
	coolScratch  []*HostView
	altScratch   []*HostView
	orderScratch []*admitUnit

	// traceProfiles[i] holds the pre-resolved workload profiles of
	// Arrival.Trace[i], validated at New so replay cannot fail mid-run;
	// traceNext is the next unscheduled trace record.
	traceProfiles [][]*workload.Profile
	traceNext     int

	stats struct {
		Arrivals      int
		Placed        int
		Retries       int
		Rejected      int
		Departed      int
		Migrations    int
		Preemptions   int
		PreemptKills  int
		GangsAdmitted int
		Backfills     int
		DeschedMoves  int
	}
	// pstats tracks admission outcomes per priority class, indexed by
	// Priority.
	pstats [3]priorityStats

	ctx context.Context
	err error // first host-advance failure; stops the run
	ran bool  // Run consumes the value; see ErrAlreadyRun

	// Lazy host clocks (syncHosts): due[i] is the time host i must next
	// advance by, never later than its earliest queued event; dueScratch
	// is advance's reusable list of the hosts it runs. listAt is the
	// cluster time refreshViews last advanced the refresh list to.
	due        []sim.Time
	dueScratch []*Host
	listAt     sim.Time
	// marks holds each host's mutation mark as it was last advanced or
	// mutated, for the -place-check clock check (placecheck.go); nil when
	// it is off. lagged counts the lagging hosts that placements and
	// departures met under that check.
	marks  []hostMark
	lagged struct{ placements, departures int }
}

// ErrAlreadyRun: Run was invoked twice on the same Cluster value. The
// public vprobe.ErrAlreadyRun mirrors this guard for Simulator.
var ErrAlreadyRun = errors.New("cluster: cluster already consumed by a run")

// New validates the configuration and builds the hosts (each started with
// zero domains — VMs arrive dynamically during Run).
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.normalized()
	pipeline, err := NewPipeline(cfg.Policy)
	if err != nil {
		return nil, err
	}
	if cfg.Mix != "mixed" && cfg.Mix != "batch" && cfg.Mix != "server" {
		return nil, fmt.Errorf("cluster: unknown mix %q (have mixed, batch, server)", cfg.Mix)
	}
	if err := cfg.Arrival.validate(); err != nil {
		return nil, err
	}
	top := numa.XeonE5620()
	if cfg.Topology != (numa.Config{}) {
		if top, err = numa.New(cfg.Topology); err != nil {
			return nil, fmt.Errorf("cluster: topology: %w", err)
		}
	}
	root := sim.NewRNG(cfg.Seed)
	c := &Cluster{
		cfg:      cfg,
		engine:   sim.NewEngine(),
		arrRNG:   root.Fork(1),
		mixRNG:   root.Fork(2),
		pipeline: pipeline,
		migrator: mem.DefaultMigrator(),
	}
	for i := 0; i < cfg.Hosts; i++ {
		ho, err := newHost(i, top, cfg.Scheduler,
			harness.DeriveSeed(cfg.Seed, "host", fmt.Sprintf("host%d", i)))
		if err != nil {
			return nil, err
		}
		c.hosts = append(c.hosts, ho)
	}
	c.scores = newScoreCache(c)
	// Every host is due at t=0: its boot kicks are queued there.
	c.due = make([]sim.Time, len(c.hosts))
	if cfg.PlaceCheck {
		c.marks = make([]hostMark, len(c.hosts))
		c.markAll(c.hosts)
	}
	c.viewSlice = make([]*HostView, len(c.hosts))
	for i, ho := range c.hosts {
		ho.initView()
		c.refreshHost(ho)
		c.viewSlice[i] = &ho.view
	}
	if cfg.Arrival.Process == ArrivalTrace {
		c.traceProfiles = make([][]*workload.Profile, len(cfg.Arrival.Trace))
		for i, rec := range cfg.Arrival.Trace {
			profs, err := resolveProfiles(rec.Profiles)
			if err != nil {
				return nil, fmt.Errorf("cluster: arrival trace record %d: %w", i, err)
			}
			c.traceProfiles[i] = profs
		}
	}
	if cfg.Telemetry != nil {
		c.attachTelemetry(cfg.Telemetry)
	}
	if cfg.Spans != nil {
		c.attachSpans(cfg.Spans)
	}
	return c, nil
}

// Run drives the cluster to its horizon and returns the report. It may be
// called once.
func (c *Cluster) Run(ctx context.Context) (*Report, error) {
	if c.ran {
		return nil, fmt.Errorf("%w: build a fresh Cluster per run", ErrAlreadyRun)
	}
	// Running consumes the value: arrivals, host engines, and telemetry
	// all advance monotonically, so a second Run would continue from —
	// and corrupt — this run's state.
	c.ran = true
	c.ctx = ctx
	if c.cfg.Telemetry != nil {
		// Size the sample ring to the horizon so it never wraps and the
		// export covers the whole run.
		c.cfg.Telemetry.Reserve(int(c.cfg.Horizon/c.cfg.Telemetry.Period()) + 2)
		c.cfg.Telemetry.Start(c.engine)
	}
	if c.cfg.Arrival.Process == ArrivalTrace {
		c.scheduleTraceArrivals()
	} else {
		c.scheduleNextArrival()
	}
	if c.cfg.RebalancePeriod > 0 {
		c.engine.Every(c.cfg.RebalancePeriod, c.cfg.RebalancePeriod, "rebalance",
			func(*sim.Engine) { c.rebalance() })
	}
	if c.cfg.DeschedulePeriod > 0 {
		c.engine.Every(c.cfg.DeschedulePeriod, c.cfg.DeschedulePeriod, "deschedule",
			func(*sim.Engine) { c.deschedule() })
	}
	if _, err := c.engine.RunUntilContext(ctx, sim.Time(c.cfg.Horizon)); err != nil {
		return nil, err
	}
	if c.err != nil {
		return nil, c.err
	}
	// Hosts last advanced when a cluster event read or mutated them; play
	// them out to the horizon so the report covers the full interval.
	if err := c.syncHosts(sim.Time(c.cfg.Horizon)); err != nil {
		return nil, err
	}
	// Close still-open spans (running VMs, in-flight migrations) at the
	// horizon so the span file never contains open intervals.
	c.spans.closeRun(sim.Time(c.cfg.Horizon))
	return c.report(), nil
}

// syncHosts brings the whole fleet current to absolute time t, for the
// readers that look at every host: the rebalancer, the descheduler, the
// telemetry sample and the final report.
//
// Sync-on-read invariant: a host is advanced only when its state is read
// or written, so between those points its clock may lag cluster time,
// events due and all. Host engines are independent between mutations,
// and an advance split into different chunks fires the same events in
// the same order, so lagging changes nothing; what must hold is that no
// reader sees a lagging host's state where it could differ from a
// current one:
//   - a mutation catches up only its own host: every cluster→host
//     mutation goes through touch, which runs the host to cluster time
//     first and marks it due, so the next read runs what it queued;
//   - a placement reads every host's view, but advances only the hosts
//     on the refresh list (refreshViews): those holding VMs or not yet
//     settled. A host off the list is settled and empty: no runnable
//     VCPU and no running PCPU, so nothing its own events do can move
//     its LLC pressure, and its free memory moves only through touch;
//   - every other reader syncs the fleet here.
//
// due[i] is never later than host i's earliest queued event
// (sim.Engine.NextAt), so a host skipped here would fire nothing by t.
// With -place-check on, every placement checks the invariant
// (checkClocks).
func (c *Cluster) syncHosts(t sim.Time) error {
	if !c.advance(c.hosts, t) {
		return c.err
	}
	return nil
}

// advance runs the given hosts that lag t with an event due by then up
// to t, in parallel across the configured workers, and leaves the rest
// alone. It reports false, with the run stopped, when an advance fails.
func (c *Cluster) advance(hosts []*Host, t sim.Time) bool {
	if c.err != nil {
		return false
	}
	run := c.dueScratch[:0]
	for _, ho := range hosts {
		if c.due[ho.Index] <= t && ho.H.Engine.Now() < t {
			//vet:alloc the scratch list grows to at most len(hosts) once, then is reused
			run = append(run, ho)
		}
	}
	c.dueScratch = run
	if len(run) == 0 {
		return true
	}
	if c.cfg.PlaceCheck && !c.checkMarks(run) {
		return false
	}
	_, err := harness.Map(c.ctx, c.cfg.Workers, len(run),
		//vet:alloc one job closure per advance, not per host; Map's result slice holds zero-size values
		func(ctx context.Context, k int) (struct{}, error) {
			return struct{}{}, run[k].advanceTo(ctx, t)
		})
	if err != nil {
		c.failSync(err)
		return false
	}
	for _, ho := range run {
		c.due[ho.Index] = ho.nextDue()
	}
	if c.cfg.PlaceCheck {
		c.markAll(run)
	}
	return true
}

// failSync stops the run on a failed sync.
func (c *Cluster) failSync(err error) {
	c.err = err
	c.engine.Stop()
}

// touch prepares ho for a cluster→host mutation (AddDomain, AttachApp,
// ActivateDomain, DestroyDomain), which reads the host's clock: it runs
// the host to cluster time, firing whatever fell due since it was last
// advanced, and marks it due so the next read runs what the mutation
// queues. It is the only advance a mutation makes. With -place-check on,
// it first checks that nothing mutated the lagging host behind its back.
// It reports false when the run is failing and the mutation must not
// happen.
func (c *Cluster) touch(ho *Host) bool {
	if c.err != nil {
		return false
	}
	now := c.engine.Now()
	if ho.H.Engine.Now() < now {
		if c.cfg.PlaceCheck && !c.checkMark(ho) {
			return false
		}
		if err := ho.advanceTo(c.ctx, now); err != nil {
			c.failSync(err)
			return false
		}
		if c.cfg.PlaceCheck {
			c.marks[ho.Index] = markOf(ho)
		}
	}
	c.due[ho.Index] = now
	return true
}

// sync brings the fleet current before a handler reads every host. It
// reports false when the run is already failing and the handler should
// bail.
func (c *Cluster) sync() bool {
	if c.err != nil {
		return false
	}
	return c.syncHosts(c.engine.Now()) == nil
}

// scheduleNextArrival arms the next generated arrival (Poisson, diurnal,
// or flash-crowd; trace replay schedules everything upfront instead).
func (c *Cluster) scheduleNextArrival() {
	wait := c.nextArrivalWait()
	if wait < sim.Microsecond {
		wait = sim.Microsecond
	}
	c.engine.Schedule(wait, "arrival", func(*sim.Engine) {
		c.onArrival()
		c.scheduleNextArrival()
	})
}

// onArrival draws one new request — a single VM, or, when GangFraction
// rolls it, a whole gang sharing one priority class — and admits it.
// Lifetimes are drawn here, at arrival, so the offered load is
// byte-identical whatever the admission mechanisms later do with each
// request.
func (c *Cluster) onArrival() {
	members, group := 1, ""
	if c.cfg.GangFraction > 0 && c.mixRNG.Float64() < c.cfg.GangFraction {
		members = c.cfg.GangSize
		group = fmt.Sprintf("g%03d", c.gangSeq)
		c.gangSeq++
	}
	prio := c.drawPriority()
	arrs := make([]arrival, members)
	for i := range arrs {
		spec, refs := c.nextSpec()
		spec.Priority = prio
		spec.Group = group
		arrs[i] = arrival{spec: spec, life: c.drawLife(), refs: refs}
	}
	c.admitArrivals(arrs)
}

// arrival is one arriving VM as its source describes it: the spec
// (named at admission), the lifetime it is owed, and its workloads in
// the trace schema (nil unless the arrivals are exported).
type arrival struct {
	spec VMSpec
	life sim.Duration
	refs []string
}

// admitArrivals admits one arriving request, generated or replayed: each
// VM gets its ID and name, is counted, exported to the arrival sink and
// recorded; then the request joins the admission queue — as one
// all-or-nothing unit when it is a gang and gang admission is on, else as
// independent singles (same offered load) — and the queue drains.
func (c *Cluster) admitArrivals(arrs []arrival) {
	now := c.engine.Now()
	vms := make([]*VM, len(arrs))
	for i, a := range arrs {
		vm := &VM{ID: len(c.vms), Spec: a.spec, arriveAt: now, life: a.life}
		vm.Spec.Name = fmt.Sprintf("vm%03d", vm.ID)
		c.vms = append(c.vms, vm)
		vms[i] = vm
		c.stats.Arrivals++
		c.pstats[vm.Spec.Priority].Arrivals++
		c.recordArrival(vm, a.refs)
		c.record(decision{kind: EventVMArrive, vm: vm})
	}
	if vms[0].Spec.Group != "" && c.cfg.Gang {
		c.enqueue(&admitUnit{id: c.unitSeq, vms: vms, gang: true,
			priority: vms[0].Spec.Priority, arriveAt: now, nextTry: now})
		c.unitSeq++
	} else {
		for _, vm := range vms {
			c.enqueue(&admitUnit{id: c.unitSeq, vms: []*VM{vm},
				priority: vm.Spec.Priority, arriveAt: now, nextTry: now})
			c.unitSeq++
		}
	}
	c.drainQueue()
}

// priorityWeights is the class mix of generated arrivals: mostly standard,
// a thick best-effort tail, and a critical head.
var priorityWeights = []float64{0.35, 0.45, 0.20}

// drawPriority picks the admission class of one arriving unit.
func (c *Cluster) drawPriority() Priority {
	return Priority(c.mixRNG.Pick(priorityWeights))
}

// drawLife draws one VM lifetime.
func (c *Cluster) drawLife() sim.Duration {
	life := sim.Duration(c.arrRNG.Exp(float64(c.cfg.MeanLifetime)))
	if life < sim.Second {
		life = sim.Second
	}
	return life
}

// sizeClasses are the VM shapes the generator draws from.
var sizeClasses = []struct {
	memMB  int64
	vcpus  int
	weight float64
}{
	{2 * 1024, 2, 0.50},
	{4 * 1024, 4, 0.35},
	{8 * 1024, 8, 0.15},
}

// batchNames is the pool of batch workloads for the mixed and batch mixes.
var batchNames = []string{"soplex", "mcf", "milc", "libquantum", "lu", "mg", "bt", "cg", "sp"}

// nextSpec draws one VM request from the configured mix, unnamed until
// admission. refs names the drawn workloads in the trace schema; it is
// built only when the arrivals are exported.
func (c *Cluster) nextSpec() (VMSpec, []string) {
	weights := make([]float64, len(sizeClasses))
	for i, sc := range sizeClasses {
		weights[i] = sc.weight
	}
	sc := sizeClasses[c.mixRNG.Pick(weights)]
	spec := VMSpec{MemoryMB: sc.memMB, VCPUs: sc.vcpus}
	var refs []string
	if c.cfg.Arrivals != nil {
		refs = make([]string, 0, sc.vcpus)
	}
	for i := 0; i < sc.vcpus; i++ {
		ref := c.drawProfileRef()
		p, err := ref.Profile()
		if err != nil {
			panic(err) // the draw tables name catalog workloads only
		}
		spec.Profiles = append(spec.Profiles, p)
		if refs != nil {
			refs = append(refs, traceRef(ref))
		}
	}
	return spec, refs
}

// drawProfileRef picks one per-VCPU workload according to the mix. It
// consumes exactly the RNG draws the pre-trace generator did, so adding
// the exportable ref changed no byte of any existing run.
func (c *Cluster) drawProfileRef() workload.Ref {
	server := func() workload.Ref {
		if c.mixRNG.Intn(2) == 0 {
			return workload.Ref{Name: "memcached", Load: []int{16, 64, 128}[c.mixRNG.Intn(3)]}
		}
		return workload.Ref{Name: "redis", Load: []int{1000, 2000, 4000}[c.mixRNG.Intn(3)]}
	}
	batch := func() workload.Ref {
		return workload.Ref{Name: batchNames[c.mixRNG.Intn(len(batchNames))]}
	}
	switch c.cfg.Mix {
	case "batch":
		return batch()
	case "server":
		return server()
	default: // mixed
		if c.mixRNG.Float64() < 0.30 {
			return server()
		}
		return batch()
	}
}

// admitDomain builds, binds, and activates the VM's domain on a host. An
// AddDomain failure is returned to the caller, which decides whether it
// is a bug: a gang commit rolls back and retries, since AddDomain checks
// more than the reserve's memory (the reserve and the allocator share
// mem.Take). Attach and activate failures are accounting bugs and stop
// the run.
func (c *Cluster) admitDomain(vm *VM, ho *Host, plan MemPlan) (*xen.Domain, error) {
	if !c.touch(ho) {
		return nil, c.err
	}
	dom, err := ho.H.AddDomain(vm.Spec.Name, vm.Spec.MemoryMB, vm.Spec.VCPUs,
		plan.Policy, plan.Preferred)
	if err != nil {
		return nil, err // a failed AddDomain mutates nothing: no dirtying
	}
	c.markDirty(ho)
	for i, p := range vm.Spec.Profiles {
		if p == nil {
			continue
		}
		if _, err := ho.H.AttachApp(dom, i, p.Clone()); err != nil {
			c.err = fmt.Errorf("cluster: attach on %s: %w", ho.Name, err)
			c.engine.Stop()
			return nil, err
		}
	}
	if err := ho.H.ActivateDomain(dom); err != nil {
		c.err = fmt.Errorf("cluster: activate on %s: %w", ho.Name, err)
		c.engine.Stop()
		return nil, err
	}
	return dom, nil
}

// placeOn admits a VM whose host the pipeline approved against live views,
// so an allocator-level failure here is a pipeline/accounting bug worth
// surfacing loudly.
func (c *Cluster) placeOn(vm *VM, ho *Host, plan MemPlan, attempt int) {
	dom, err := c.admitDomain(vm, ho, plan)
	if err != nil {
		if c.err == nil {
			c.err = fmt.Errorf("cluster: place %s on %s: %w", vm.Spec.Name, ho.Name, err)
			c.engine.Stop()
		}
		return
	}
	c.finalizePlacement(vm, ho, dom, plan, attempt)
}

// finalizePlacement records a successful placement: VM state, per-class
// wait statistics (first admission only), the place event, and the
// departure timer armed with the lifetime drawn at arrival.
func (c *Cluster) finalizePlacement(vm *VM, ho *Host, dom *xen.Domain, plan MemPlan, attempt int) {
	vm.Host = ho
	vm.dom = dom
	vm.state = stateRunning
	vm.placedAt = c.engine.Now()
	ho.VMs = append(ho.VMs, vm)
	ho.Placed++
	c.markDirty(ho)
	c.stats.Placed++
	if !vm.admitted {
		vm.admitted = true
		wait := c.engine.Now().Sub(vm.arriveAt)
		ps := &c.pstats[vm.Spec.Priority]
		ps.Placed++
		ps.WaitTotal += wait
		if c.tel != nil {
			c.tel.waitHist[vm.Spec.Priority].Observe(wait.Seconds())
		}
	}
	c.record(decision{kind: EventVMPlace, vm: vm, host: ho, plan: plan, attempt: attempt})
	if vm.departAt == 0 {
		life := vm.life
		if life < sim.Second {
			life = sim.Second
		}
		vm.departAt = c.engine.Now().Add(life)
		seq := vm.departSeq
		c.engine.Schedule(life, "depart", func(*sim.Engine) {
			if vm.departSeq == seq {
				c.onDepart(vm)
			}
		})
	}
}

// onDepart ends a VM's lifetime: its domain is destroyed (freeing memory)
// wherever it currently is — even mid-migration, in which case the
// migration completion becomes a no-op. Only the VM's host is advanced;
// a placement the freed capacity allows advances what it reads.
func (c *Cluster) onDepart(vm *VM) {
	if vm.state != stateRunning && vm.state != stateMigrating {
		return
	}
	if !vm.dom.Destroyed {
		if c.cfg.PlaceCheck && vm.Host.H.Engine.Now() < c.engine.Now() {
			c.lagged.departures++
		}
		if !c.touch(vm.Host) {
			return
		}
		if err := vm.Host.H.DestroyDomain(vm.dom); err != nil {
			c.err = fmt.Errorf("cluster: depart %s: %w", vm.Spec.Name, err)
			c.engine.Stop()
			return
		}
	}
	vm.Host.removeVM(vm)
	c.markDirty(vm.Host)
	vm.state = stateDeparted
	c.stats.Departed++
	c.record(decision{kind: EventVMDepart, vm: vm, host: vm.Host})
	// The teardown freed capacity; give the queue a shot at it.
	c.drainQueue()
}

// rebalance scans for overloaded hosts and migrates at most one VM off
// each per tick. It reads the cached views (refreshed for exactly the
// dirty hosts) and reuses the per-tick scratch instead of rebuilding
// views, hot, and coolViews every tick.
func (c *Cluster) rebalance() {
	if !c.sync() {
		return
	}
	views := c.liveViews()
	if c.hotScratch == nil {
		c.hotScratch = make([]bool, len(c.hosts))
		c.coolScratch = make([]*HostView, 0, len(c.hosts))
	}
	hot := c.hotScratch
	for i, ho := range c.hosts {
		hot[i] = views[i].LLCPressure > c.cfg.LLCPressureLimit ||
			ho.intervalRemoteRatio() > remoteRatioLimit
	}
	// Only cool hosts may receive migrations.
	coolViews := c.coolScratch[:0]
	for i, hv := range views {
		if !hot[i] {
			coolViews = append(coolViews, hv)
		}
	}
	c.coolScratch = coolViews[:0]
	for i, ho := range c.hosts {
		if !hot[i] || len(coolViews) == 0 {
			continue
		}
		vm := c.migrationCandidate(ho)
		if vm == nil {
			continue
		}
		hv, plan, err := c.pipeline.Place(&vm.Spec, coolViews)
		if err != nil {
			continue // nowhere to move it this tick
		}
		c.startMigration(vm, c.hosts[hv.Index], plan)
	}
}

// migrationCandidate picks the VM contributing the most LLC pressure on
// the host, skipping VMs already migrating or inside the cooldown window.
func (c *Cluster) migrationCandidate(ho *Host) *VM {
	now := c.engine.Now()
	var best *VM
	var bestPressure float64
	for _, vm := range ho.VMs {
		if vm.state != stateRunning {
			continue
		}
		if now.Sub(vm.placedAt) < c.cfg.migrationCooldown() {
			continue
		}
		var pressure float64
		for _, v := range vm.dom.VCPUs {
			if !v.Runnable() {
				continue
			}
			if ph := v.Phase(); ph != nil {
				pressure += ph.RPTI
			}
		}
		if best == nil || pressure > bestPressure {
			best, bestPressure = vm, pressure
		}
	}
	if best == nil || bestPressure <= 0 {
		return nil
	}
	return best
}

// startMigration moves a VM between hosts: the target domain is built
// immediately (reserving memory) with the source's remaining work, the
// source domain is destroyed, and the VM resumes on the target after a
// blackout priced from its memory footprint via the page-migration cost
// model (mem.Migrator.FullCopyCycles).
func (c *Cluster) startMigration(vm *VM, target *Host, plan MemPlan) {
	// The source's remaining work is read before anything mutates, so
	// both hosts are caught up first.
	src := vm.Host
	if !c.touch(src) || !c.touch(target) {
		return
	}
	profiles := vm.migrationProfiles()
	dom, err := target.H.AddDomain(vm.Spec.Name, vm.Spec.MemoryMB, vm.Spec.VCPUs,
		plan.Policy, plan.Preferred)
	if err != nil {
		// The capacity filter admits only what the allocator holds, but
		// the rebalancer places a tick's migrations against one snapshot,
		// so an earlier move may have taken this room; skip this tick.
		return
	}
	for i, p := range profiles {
		if p == nil {
			continue
		}
		if _, err := target.H.AttachApp(dom, i, p); err != nil {
			c.err = fmt.Errorf("cluster: migrate attach on %s: %w", target.Name, err)
			c.engine.Stop()
			return
		}
	}
	c.markDirty(target)
	if err := src.H.DestroyDomain(vm.dom); err != nil {
		c.err = fmt.Errorf("cluster: migrate teardown on %s: %w", src.Name, err)
		c.engine.Stop()
		return
	}
	src.removeVM(vm)
	c.markDirty(src)
	vm.Host = target
	vm.dom = dom
	vm.state = stateMigrating
	vm.Migrations++
	target.VMs = append(target.VMs, vm)
	c.stats.Migrations++

	blackout := c.migrationBlackout(vm, target)
	c.record(decision{kind: EventMigrateStart, vm: vm, host: src, target: target, dur: blackout})
	c.engine.Schedule(blackout, "migrate-done", func(*sim.Engine) { c.finishMigration(vm) })
}

// migrationBlackout prices moving vm to target with the page-copy cost
// model: the time its memory footprint takes to copy at target's clock.
func (c *Cluster) migrationBlackout(vm *VM, target *Host) sim.Duration {
	return sim.Duration(c.migrator.FullCopyCycles(vm.Spec.MemoryMB) / target.Top.CyclesPerMicrosecond())
}

// finishMigration activates the VM on its target host once the copy
// blackout elapses. A VM that departed mid-copy stays down.
func (c *Cluster) finishMigration(vm *VM) {
	if vm.state != stateMigrating || !c.touch(vm.Host) {
		return
	}
	if err := vm.Host.H.ActivateDomain(vm.dom); err != nil {
		c.err = fmt.Errorf("cluster: migrate activate on %s: %w", vm.Host.Name, err)
		c.engine.Stop()
		return
	}
	vm.state = stateRunning
	vm.placedAt = c.engine.Now()
	vm.Host.Placed++
	// Activation flips the domain's VCPUs runnable, which moves the
	// view's LLC pressure — a placement delta like any other.
	c.markDirty(vm.Host)
	c.record(decision{kind: EventMigrateDone, vm: vm, host: vm.Host})
}
