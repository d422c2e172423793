package vprobe

import (
	"context"
	"time"

	"vprobe/internal/cluster"
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

// Policies returns all registered placement policies, sorted.
func Policies() []Policy {
	names := cluster.Policies()
	out := make([]Policy, len(names))
	for i, n := range names {
		out[i] = Policy(n)
	}
	return out
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

	text  string
	spans *Tracing
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

// Tracing returns the run's span recorder: CompileOptions.Spans, or the
// recorder created for a spec that sets trace; nil for an untraced run.
func (r *ClusterReport) Tracing() *Tracing { return r.spans }

// RunCluster validates a cluster spec and simulates it: a multi-host
// cluster under the spec's placement policy and per-host scheduler,
// driving VM arrivals and departures to the horizon. Validation failures
// wrap ErrSpecVersion or ErrInvalidSpec. opts attaches events, telemetry
// and spans exactly as it does for CompileScenario, and opts.Arrivals
// receives the run's arrival stream.
func RunCluster(ctx context.Context, s ClusterSpec, opts CompileOptions) (*ClusterReport, error) {
	defer sealEvents(opts.Events)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg := s.Config()
	if opts.Telemetry != nil {
		if err := opts.Telemetry.attach(); err != nil {
			return nil, err
		}
		cfg.Telemetry = opts.Telemetry.sampler
	}
	spans := compileSpans(opts, s.Trace, s.TraceLimit)
	if spans != nil {
		tracer, err := spans.attach(cfg.Seed)
		if err != nil {
			return nil, err
		}
		cfg.Spans = tracer
	}
	if sink := opts.Events; sink != nil {
		cfg.Events = func(ev cluster.Event) {
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
	cfg.Arrivals = opts.Arrivals
	c, err := cluster.New(cfg)
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
		spans:         spans,
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
