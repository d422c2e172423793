package vprobe

import (
	"fmt"
	"time"

	"vprobe/internal/spec"
	"vprobe/internal/workload"
)

// This file is the compile layer between the serializable spec types
// (internal/spec: plain data, JSON-round-trippable, versioned) and a
// running simulation. CompileScenario lowers a ScenarioSpec onto Config
// and a ready Simulator; RunCluster (cluster.go) validates a ClusterSpec,
// lowers it with ClusterSpec.Config and runs it. Both attach the live
// hooks a spec cannot carry (Events, Telemetry, Spans) from
// CompileOptions.
//
// vprobe-serve and programmatic callers go through here. The CLIs do
// not: vprobe-sim and vprobe-trace build Config by hand, and
// vprobe-cluster, internal/experiments and the benchmark module build
// cluster.Config directly, because they need knobs the wire spec
// deliberately lacks (LLC and remote-ratio migration limits, topology
// JSON files, an arrival sink). The compile tests pin scenario lowering
// against hand-built Configs and cluster lowering against the goldens
// under testdata/cluster.

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
// may hang on a compiled scenario or a RunCluster run. All fields are
// optional.
type CompileOptions struct {
	// Events receives structured events exactly as Config.Events would;
	// cluster runs deliver the cluster-scoped kinds (EventVMArrive ...
	// EventMigrateDone) with VCPU and Node set to -1.
	Events EventSink
	// Telemetry collects metric time series exactly as Config.Telemetry
	// would.
	Telemetry *Telemetry
	// Spans records the span flight recorder exactly as Config.Spans
	// would. When nil and the spec sets trace, the compile layer creates
	// a recorder itself (retrievable through Simulator.Tracing or
	// ClusterReport.Tracing), honoring the spec's trace_limit.
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
