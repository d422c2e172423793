package vprobe

import (
	"fmt"
	"time"

	"vprobe/internal/spec"
	"vprobe/internal/workload"
)

// This file is the compile layer between the serializable spec types
// (internal/spec: plain data, JSON-round-trippable, versioned) and the
// runtime Config/ClusterConfig (which carry live callbacks — Events,
// Telemetry, Trace — that cannot cross a process boundary). Everything
// that turns a wire-format request into a running simulation goes through
// here: vprobe-serve, the CLIs, and programmatic callers alike, so there
// is exactly one audited front door. The compilation is exact by
// construction — a compiled spec runs byte-identical to hand-building the
// same Config — and the round-trip tests in compile_test.go pin that for
// every preset topology, scheduler, workload, and cluster policy.

// Public aliases of the spec types, so modules outside this one can
// build and compile specs without reaching into internal/spec (Go's
// internal rule gates the import path, not the types). The versioned
// names stay canonical in internal/spec; these are the same types.
type (
	// ScenarioSpec is spec.ScenarioV1: a serializable single-host run.
	ScenarioSpec = spec.ScenarioV1
	// ClusterSpec is spec.ClusterV1: a serializable cluster run.
	ClusterSpec = spec.ClusterV1
	// VMSpec is spec.VMV1: one virtual machine of a ScenarioSpec.
	VMSpec = spec.VMV1
	// AppSpec is spec.AppV1: one application instance on a VMSpec.
	AppSpec = spec.AppV1
	// ArrivalSpec is spec.ArrivalV1: one recorded arrival of a
	// ClusterSpec arrival trace.
	ArrivalSpec = spec.ArrivalV1
	// SpecDuration is spec.Duration: a JSON-friendly time.Duration that
	// accepts Go duration strings and float seconds.
	SpecDuration = spec.Duration
)

// CompileOptions carries the live, non-serializable attachments a caller
// may hang on a compiled run. All fields are optional.
type CompileOptions struct {
	// Events receives structured events exactly as Config.Events /
	// ClusterConfig.Events would.
	Events EventSink
	// Telemetry collects metric time series exactly as Config.Telemetry /
	// ClusterConfig.Telemetry would.
	Telemetry *Telemetry
	// Spans records the span flight recorder exactly as Config.Spans /
	// ClusterConfig.Spans would. When nil and the spec sets trace, the
	// compile layer creates a recorder itself (retrievable through
	// Simulator.Tracing or ClusterConfig.Spans), honoring the spec's
	// trace_limit.
	Spans *Tracing
}

// compileSpans resolves the recorder for a compiled run: the caller's, or
// a fresh one when the spec asks for tracing.
func compileSpans(opts CompileOptions, trace bool, limit int) *Tracing {
	if opts.Spans != nil {
		return opts.Spans
	}
	if trace {
		return NewTracing(TracingOptions{Limit: limit})
	}
	return nil
}

// CompileScenario lowers a ScenarioV1 onto a ready-to-run Simulator: it
// validates the spec (failures wrap spec.ErrVersion or spec.ErrInvalid),
// builds the Config, creates every VM, and attaches every app. The
// returned horizon is the spec's, for handing to RunContext. The compiled
// run is byte-identical to constructing the same Config by hand.
func CompileScenario(s spec.ScenarioV1, opts CompileOptions) (*Simulator, time.Duration, error) {
	if err := s.Validate(); err != nil {
		return nil, 0, err
	}
	n := s.Normalize()
	sim, err := NewSimulator(Config{
		Scheduler:     Scheduler(n.Scheduler),
		Topology:      Topology(n.Topology),
		Seed:          n.Seed,
		SamplePeriod:  n.SamplePeriod.Std(),
		DynamicBounds: n.DynamicBounds,
		PageMigration: n.PageMigration,
		Events:        opts.Events,
		Telemetry:     opts.Telemetry,
		Spans:         compileSpans(opts, n.Trace, n.TraceLimit),
	})
	if err != nil {
		return nil, 0, err
	}
	for i, vmSpec := range n.VMs {
		mp := MemFill
		if vmSpec.Memory == "stripe" {
			mp = MemStripe
		}
		vm, err := sim.AddVM(VMConfig{
			Name:          vmSpec.Name,
			MemoryMB:      vmSpec.MemoryMB,
			VCPUs:         vmSpec.VCPUs,
			Memory:        mp,
			FillGuestIdle: vmSpec.FillGuestIdle,
		})
		if err != nil {
			return nil, 0, fmt.Errorf("vprobe: compile vms[%d] %q: %w", i, vmSpec.Name, err)
		}
		for j, app := range vmSpec.Apps {
			if err := vm.runSpecApp(app); err != nil {
				return nil, 0, fmt.Errorf("vprobe: compile vms[%d].apps[%d]: %w", i, j, err)
			}
		}
	}
	return sim, n.Horizon.Std(), nil
}

// runSpecApp starts one AppV1 on the VM — the single lowering every app
// reference shares.
func (vm *VM) runSpecApp(app spec.AppV1) error {
	switch {
	case app.Name != "":
		return vm.RunApp(app.Name)
	case app.Server == "memcached":
		return vm.RunProfile(workload.Memcached(app.Load))
	case app.Server == "redis":
		return vm.RunProfile(workload.Redis(app.Load))
	default:
		return fmt.Errorf("%w: app sets neither name nor server", spec.ErrInvalid)
	}
}

// CompileCluster lowers a ClusterV1 onto the ClusterConfig RunCluster
// accepts. Validation failures wrap spec.ErrVersion or spec.ErrInvalid;
// the compiled config runs byte-identical to hand-building the same
// ClusterConfig.
func CompileCluster(c spec.ClusterV1, opts CompileOptions) (ClusterConfig, error) {
	if err := c.Validate(); err != nil {
		return ClusterConfig{}, err
	}
	n := c.Normalize()
	cfg := ClusterConfig{
		Hosts:             n.Hosts,
		Topology:          Topology(n.Topology),
		Scheduler:         Scheduler(n.Scheduler),
		Policy:            Policy(n.Policy),
		Seed:              n.Seed,
		ArrivalsPerSecond: n.ArrivalsPerSecond,
		MeanLifetime:      n.MeanLifetime.Std(),
		Horizon:           n.Horizon.Std(),
		Workers:           n.Workers,
		Mix:               n.Mix,
		RebalancePeriod:   n.RebalancePeriod.Std(),
		Preempt:           n.Preempt,
		Gang:              n.Gang,
		GangFraction:      n.GangFraction,
		GangSize:          n.GangSize,
		Backfill:          n.Backfill,
		DeschedulePeriod:  n.DeschedulePeriod.Std(),
		Arrival:           ArrivalProcess(n.ArrivalProcess),
		DiurnalPeriod:     n.DiurnalPeriod.Std(),
		DiurnalAmplitude:  n.DiurnalAmplitude,
		FlashAt:           n.FlashAt.Std(),
		FlashDuration:     n.FlashDuration.Std(),
		FlashFactor:       n.FlashFactor,
		PlaceCheck:        n.PlaceCheck,
		Events:            opts.Events,
		Telemetry:         opts.Telemetry,
		Spans:             compileSpans(opts, n.Trace, n.TraceLimit),
	}
	for _, rec := range n.ArrivalTrace {
		cfg.ArrivalTrace = append(cfg.ArrivalTrace, ClusterArrival{
			At:       rec.At.Std(),
			MemoryMB: rec.MemoryMB,
			VCPUs:    rec.VCPUs,
			Priority: rec.Priority,
			Group:    rec.Group,
			Lifetime: rec.Lifetime.Std(),
			Profiles: rec.Profiles,
		})
	}
	return cfg, nil
}
