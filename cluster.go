package vprobe

import (
	"context"
	"fmt"
	"time"

	"vprobe/internal/cluster"
	"vprobe/internal/numa"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
)

// Policy names a cluster placement policy (the Filter/Score pipeline a
// cluster uses to admit VMs onto hosts).
type Policy string

// Built-in placement policies.
const (
	// PolicyPack consolidates: fullest feasible host wins.
	PolicyPack Policy = "pack"
	// PolicySpread balances: least-loaded feasible host wins.
	PolicySpread Policy = "spread"
	// PolicyNUMA is NUMA-aware: only hosts where the VM's memory fits in
	// few per-node chunks are feasible, scored by single-node fit and LLC
	// quiet-ness.
	PolicyNUMA Policy = "numa"
)

// knownArrivalProcess reports whether the name is a registered arrival
// generator.
func knownArrivalProcess(p ArrivalProcess) bool {
	for _, n := range cluster.ArrivalProcesses() {
		if n == string(p) {
			return true
		}
	}
	return false
}

// Policies returns all registered placement policies, sorted.
func Policies() []Policy {
	names := cluster.Policies()
	out := make([]Policy, len(names))
	for i, n := range names {
		out[i] = Policy(n)
	}
	return out
}

// ArrivalProcess names a cluster arrival generator (the process that
// decides when the next VM request enters admission).
type ArrivalProcess string

// Built-in arrival processes.
const (
	// ArrivalPoisson draws i.i.d. exponential gaps at ArrivalsPerSecond —
	// the classic memoryless open-loop load (the default).
	ArrivalPoisson ArrivalProcess = "poisson"
	// ArrivalDiurnal modulates the Poisson rate with a sinusoid: the rate
	// breathes between rate*(1-A) and rate*(1+A) over DiurnalPeriod.
	ArrivalDiurnal ArrivalProcess = "diurnal"
	// ArrivalFlash multiplies the rate by FlashFactor inside the
	// [FlashAt, FlashAt+FlashDuration) window — a flash crowd.
	ArrivalFlash ArrivalProcess = "flash"
	// ArrivalReplay replays the recorded stream in ClusterConfig.
	// ArrivalTrace instead of drawing arrivals.
	ArrivalReplay ArrivalProcess = "trace"
)

// ArrivalProcesses returns all arrival processes, sorted by name.
func ArrivalProcesses() []ArrivalProcess {
	names := cluster.ArrivalProcesses()
	out := make([]ArrivalProcess, len(names))
	for i, n := range names {
		out[i] = ArrivalProcess(n)
	}
	return out
}

// ClusterArrival is one recorded VM arrival of a replayable trace: when
// the request arrives, the VM's shape and priority, how long it lives
// once placed, and what runs on its VCPUs. Consecutive arrivals sharing
// a non-empty Group and the same At form one gang. Profiles entries are
// workload references — a catalog name ("mcf"), "memcached:<clients>",
// or "redis:<connections>"; VCPUs beyond the list idle.
type ClusterArrival struct {
	At       time.Duration
	MemoryMB int64
	VCPUs    int
	// Priority is the admission class: 0 best-effort, 1 standard,
	// 2 critical.
	Priority int
	Group    string
	Lifetime time.Duration
	Profiles []string
}

// internal lowers the public record onto the cluster trace schema.
func (a ClusterArrival) internal() cluster.TraceArrival {
	return cluster.TraceArrival{
		AtUS:     a.At.Microseconds(),
		MemoryMB: a.MemoryMB,
		VCPUs:    a.VCPUs,
		Priority: a.Priority,
		Group:    a.Group,
		LifeUS:   a.Lifetime.Microseconds(),
		Profiles: append([]string(nil), a.Profiles...),
	}
}

// ClusterConfig parameterises RunCluster. Zero values select defaults
// (4 hosts, TopologyXeonE5620, SchedulerCredit, PolicyNUMA, seed 1,
// Poisson arrivals at 0.35/s, 60 s mean lifetime, 300 s horizon, mixed
// workloads).
type ClusterConfig struct {
	// Hosts is the number of simulated hosts (default 4).
	Hosts int
	// Topology is the per-host NUMA preset (default TopologyXeonE5620).
	Topology Topology
	// Scheduler is the per-host VCPU scheduler (default SchedulerCredit).
	Scheduler Scheduler
	// Policy is the placement policy (default PolicyNUMA).
	Policy Policy
	// Seed makes runs reproducible (default 1).
	Seed uint64
	// ArrivalsPerSecond is the base VM arrival rate (default 0.35). The
	// non-homogeneous processes modulate it; trace replay ignores it.
	ArrivalsPerSecond float64
	// Arrival selects the arrival generator (default ArrivalPoisson).
	Arrival ArrivalProcess
	// DiurnalPeriod is the ArrivalDiurnal sinusoid's period (default: the
	// horizon — one full day-night cycle per run). DiurnalAmplitude in
	// [0, 1] sets the swing around ArrivalsPerSecond (default 0.6).
	DiurnalPeriod    time.Duration
	DiurnalAmplitude float64
	// FlashAt starts an ArrivalFlash window of FlashDuration during which
	// the rate multiplies by FlashFactor (defaults: horizon/3, horizon/10,
	// 8).
	FlashAt       time.Duration
	FlashDuration time.Duration
	FlashFactor   float64
	// ArrivalTrace is the recorded stream ArrivalReplay replays, sorted
	// by At.
	ArrivalTrace []ClusterArrival
	// ArrivalSink, when non-nil, receives every materialized arrival as a
	// replayable ClusterArrival — recording a generated run for later
	// ArrivalReplay. The stream depends only on the seed and the arrival
	// configuration, never on placement mechanisms or worker count.
	ArrivalSink func(ClusterArrival)
	// PlaceCheck cross-validates every placement decision of the
	// incremental engine against a full rescan of fresh host views and
	// fails the run on the first divergence. Purely diagnostic: it never
	// changes results, only costs time.
	PlaceCheck bool
	// MeanLifetime is the mean exponential VM lifetime (default 60s).
	MeanLifetime time.Duration
	// Horizon is the simulated duration (default 300s).
	Horizon time.Duration
	// Workers bounds host-advance parallelism (<= 0 means GOMAXPROCS).
	// The result is byte-identical at every worker count.
	Workers int
	// Mix selects the workload mix: "mixed" (default), "batch", "server".
	Mix string
	// RebalancePeriod is the inter-host rebalancer tick (default 10s;
	// negative disables rebalancing).
	RebalancePeriod time.Duration
	// Preempt lets arrivals above best-effort evict strictly-lower-priority
	// VMs when no host fits; victims migrate when any host takes them and
	// are otherwise killed and requeued (default off).
	Preempt bool
	// Gang admits multi-VM arrival groups all-or-nothing (default off).
	Gang bool
	// GangFraction is the fraction of arrivals that form gangs, in [0, 1].
	// Gangs are drawn into the arrival stream whenever the fraction is
	// positive — even with Gang off — so toggling the mechanism compares
	// admission policies at equal load.
	GangFraction float64
	// GangSize is the number of VMs per gang (default 3).
	GangSize int
	// Backfill lets small lower-priority VMs jump the admission queue into
	// fragmentation holes that cannot delay the blocked head (default off).
	Backfill bool
	// DeschedulePeriod is the defragmentation pass tick; zero disables the
	// descheduler (the default).
	DeschedulePeriod time.Duration
	// Events receives cluster-scoped events (EventVMArrive ...
	// EventMigrateDone) when non-nil. Event.Host and Event.VM carry the
	// subjects; VCPU and Node are -1.
	Events EventSink
	// Telemetry, when non-nil, collects cluster-level and per-host metric
	// time series from the run (see NewTelemetry). A collector serves
	// exactly one run; reusing one fails with ErrTelemetryAttached.
	Telemetry *Telemetry
	// Spans, when non-nil, records the placement flight recorder: VM
	// lifecycle spans with per-plugin placement provenance, migration,
	// preemption, gang, and backfill chains (see NewTracing). A recorder
	// serves exactly one run; reusing one fails with ErrTracingAttached.
	Spans *Tracing
}

// ClusterReport summarises a cluster run.
type ClusterReport struct {
	// Policy / Scheduler / Hosts / Horizon echo the configuration.
	Policy    Policy
	Scheduler Scheduler
	Hosts     int
	Horizon   time.Duration

	// Arrivals counts VMs that entered admission; Placed counts
	// admissions onto a host (a killed preemption victim admitted again
	// counts again; migrations do not); Rejected counts VMs that exhausted
	// their retries; Departed counts completed lifetimes; Migrations
	// counts inter-host live migrations.
	Arrivals   int
	Placed     int
	Retries    int
	Rejected   int
	Departed   int
	Migrations int

	// RejectionRate is Rejected/Arrivals; RemoteRatio is the
	// access-weighted remote-memory ratio across all hosts; Utilization
	// is aggregate PCPU busy time over capacity.
	RejectionRate float64
	RemoteRatio   float64
	Utilization   float64

	// Control-plane counters: Preemptions counts victims evicted for
	// higher-priority arrivals (PreemptKills of them killed and requeued
	// rather than migrated); GangsAdmitted counts all-or-nothing group
	// admissions; Backfills counts queue-jump placements; DeschedMoves
	// counts defragmentation migrations.
	Preemptions   int
	PreemptKills  int
	GangsAdmitted int
	Backfills     int
	DeschedMoves  int

	// PerPriority breaks admission down by priority class, ordered
	// best-effort, standard, critical.
	PerPriority []PriorityReport

	text string
}

// PriorityReport is one priority class's admission summary.
type PriorityReport struct {
	// Class is the priority class name ("best-effort", "standard",
	// "critical").
	Class string
	// Arrivals / Placed / Rejected count the class's VMs.
	Arrivals int
	Placed   int
	Rejected int
	// MeanWait is the mean arrival-to-first-placement wait of the class's
	// placed VMs.
	MeanWait time.Duration
}

// String renders the report as aligned tables.
func (r *ClusterReport) String() string { return r.text }

// RunCluster simulates a multi-host cluster under the given placement
// policy and per-host scheduler, driving a random stream of VM arrivals
// and departures to the horizon. Configuration failures wrap
// ErrUnknownTopology, ErrUnknownScheduler, or ErrUnknownPolicy.
func RunCluster(ctx context.Context, cfg ClusterConfig) (*ClusterReport, error) {
	if cfg.Topology != "" {
		if _, ok := numa.Presets[string(cfg.Topology)]; !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownTopology, cfg.Topology)
		}
	}
	if cfg.Scheduler != "" {
		if _, err := sched.New(sched.Kind(cfg.Scheduler)); err != nil {
			return nil, fmt.Errorf("%w: %q", ErrUnknownScheduler, cfg.Scheduler)
		}
	}
	if cfg.Policy != "" {
		if _, err := cluster.NewPipeline(string(cfg.Policy)); err != nil {
			return nil, fmt.Errorf("%w: %q", ErrUnknownPolicy, cfg.Policy)
		}
	}
	if cfg.Arrival != "" && !knownArrivalProcess(cfg.Arrival) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownArrivalProcess, cfg.Arrival)
	}
	ccfg := cluster.Config{
		Hosts:             cfg.Hosts,
		Topology:          string(cfg.Topology),
		Scheduler:         sched.Kind(cfg.Scheduler),
		Policy:            string(cfg.Policy),
		Seed:              cfg.Seed,
		ArrivalsPerSecond: cfg.ArrivalsPerSecond,
		MeanLifetime:      sim.Duration(cfg.MeanLifetime.Microseconds()),
		Horizon:           sim.Duration(cfg.Horizon.Microseconds()),
		Workers:           cfg.Workers,
		Mix:               cfg.Mix,
		RebalancePeriod:   sim.Duration(cfg.RebalancePeriod.Microseconds()),
		Preempt:           cfg.Preempt,
		Gang:              cfg.Gang,
		GangFraction:      cfg.GangFraction,
		GangSize:          cfg.GangSize,
		Backfill:          cfg.Backfill,
		DeschedulePeriod:  sim.Duration(cfg.DeschedulePeriod.Microseconds()),
		PlaceCheck:        cfg.PlaceCheck,
		Arrival: cluster.ArrivalConfig{
			Process:          string(cfg.Arrival),
			DiurnalPeriod:    sim.Duration(cfg.DiurnalPeriod.Microseconds()),
			DiurnalAmplitude: cfg.DiurnalAmplitude,
			FlashAt:          sim.Duration(cfg.FlashAt.Microseconds()),
			FlashDuration:    sim.Duration(cfg.FlashDuration.Microseconds()),
			FlashFactor:      cfg.FlashFactor,
		},
	}
	if len(cfg.ArrivalTrace) > 0 {
		ccfg.Arrival.Trace = make([]cluster.TraceArrival, len(cfg.ArrivalTrace))
		for i, rec := range cfg.ArrivalTrace {
			ccfg.Arrival.Trace[i] = rec.internal()
		}
	}
	if sink := cfg.ArrivalSink; sink != nil {
		ccfg.ArrivalSink = func(rec cluster.TraceArrival) {
			sink(ClusterArrival{
				At:       time.Duration(rec.AtUS) * time.Microsecond,
				MemoryMB: rec.MemoryMB,
				VCPUs:    rec.VCPUs,
				Priority: rec.Priority,
				Group:    rec.Group,
				Lifetime: time.Duration(rec.LifeUS) * time.Microsecond,
				Profiles: rec.Profiles,
			})
		}
	}
	if cfg.RebalancePeriod < 0 {
		ccfg.RebalancePeriod = -1
	}
	if cfg.Telemetry != nil {
		if err := cfg.Telemetry.attach(); err != nil {
			return nil, err
		}
		ccfg.Telemetry = cfg.Telemetry.sampler
	}
	if cfg.Spans != nil {
		seed := cfg.Seed
		if seed == 0 {
			seed = 1 // the cluster's own default, mirrored for span IDs
		}
		tracer, err := cfg.Spans.attach(seed)
		if err != nil {
			return nil, err
		}
		ccfg.Spans = tracer
	}
	if sink := cfg.Events; sink != nil {
		ccfg.Events = func(ev cluster.Event) {
			sink.HandleEvent(Event{
				At:     time.Duration(ev.At) * time.Microsecond,
				Kind:   EventKind(ev.Kind),
				VCPU:   -1,
				Node:   -1,
				Host:   ev.Host,
				VM:     ev.VM,
				Detail: ev.Detail,
			})
		}
	}
	c, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}
	rep, err := c.Run(ctx)
	if err != nil {
		return nil, err
	}
	out := &ClusterReport{
		Policy:        Policy(rep.Policy),
		Scheduler:     Scheduler(rep.Scheduler),
		Hosts:         rep.Hosts,
		Horizon:       time.Duration(rep.Horizon) * time.Microsecond,
		Arrivals:      rep.Arrivals,
		Placed:        rep.Placed,
		Retries:       rep.Retries,
		Rejected:      rep.Rejected,
		Departed:      rep.Departed,
		Migrations:    rep.Migrations,
		RejectionRate: rep.RejectionRate,
		RemoteRatio:   rep.RemoteRatio,
		Utilization:   rep.Utilization,
		Preemptions:   rep.Preemptions,
		PreemptKills:  rep.PreemptKills,
		GangsAdmitted: rep.GangsAdmitted,
		Backfills:     rep.Backfills,
		DeschedMoves:  rep.DeschedMoves,
		text:          rep.String(),
	}
	for _, p := range rep.PerPriority {
		out.PerPriority = append(out.PerPriority, PriorityReport{
			Class:    p.Class,
			Arrivals: p.Arrivals,
			Placed:   p.Placed,
			Rejected: p.Rejected,
			MeanWait: time.Duration(p.MeanWait) * time.Microsecond,
		})
	}
	return out, nil
}
