package vprobe

import (
	"io"
	"time"

	"vprobe/internal/spec"
	"vprobe/internal/xen"
)

// This file is the compile layer between the serializable spec types
// (internal/spec: plain data, JSON-round-trippable, versioned) and a
// running simulation. CompileScenario validates a ScenarioSpec, lowers it
// with ScenarioSpec.Hypervisor and wraps the result in an unstarted
// Simulator; RunCluster (cluster.go) validates a ClusterSpec, lowers it
// with ClusterSpec.Config and runs it. Both attach the live hooks a spec
// cannot carry (Events, Telemetry, Spans) from CompileOptions.
//
// CompileScenario is the only way to build a Simulator and RunCluster the
// only public way to run a cluster: vprobe-serve, vprobe-sim -spec,
// vprobe-cluster, vprobe-trace, the examples and programmatic callers all
// describe their run as a spec, and internal/experiments lowers its paper
// cells with the same two spec methods. The compile tests pin scenario
// lowering against per-case digests under testdata/scenario and cluster
// lowering against the goldens under testdata/cluster.

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
	// Events, when non-nil, receives structured scheduling events; cluster
	// runs deliver the cluster-scoped kinds (EventVMArrive ...
	// EventMigrateDone) with VCPU and Node set to -1.
	Events EventSink
	// Telemetry, when non-nil, collects metric time series from the run
	// (see NewTelemetry). A collector serves exactly one run; reusing one
	// fails with ErrTelemetryAttached.
	Telemetry *Telemetry
	// Spans, when non-nil, records the run's span flight recorder (see
	// NewTracing). A recorder serves exactly one run; reusing one fails
	// with ErrTracingAttached. When nil and the spec sets trace, the
	// compile layer creates a recorder itself (retrievable through
	// Simulator.Tracing or ClusterReport.Tracing), honoring the spec's
	// trace_limit.
	Spans *Tracing
	// Arrivals, when non-nil, receives a cluster run's offered load: one
	// JSON line per arriving VM, in arrival order, in the trace schema
	// spec.ReadArrivalTrace reads back (integer-microsecond at_us and
	// life_us). The first failed write fails the run. CompileScenario
	// ignores it.
	Arrivals io.Writer
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

// CompileScenario compiles a ScenarioV1 into a ready-to-run Simulator:
// spec.ScenarioV1.Hypervisor validates and lowers it (failures wrap
// spec.ErrVersion or spec.ErrInvalid), and the live hooks from opts are
// attached. The returned Simulator is unstarted, so its
// Hypervisor().Policy may still be replaced, and the returned horizon is
// the spec's, for handing to RunContext. The run stops at the horizon or
// once the spec's watched VMs complete.
func CompileScenario(s spec.ScenarioV1, opts CompileOptions) (*Simulator, time.Duration, error) {
	h, err := s.Hypervisor()
	if err != nil {
		return nil, 0, err
	}
	n := s.Normalize()
	opts.Spans = compileSpans(opts, n.Trace, n.TraceLimit)
	h.EventFn = eventHook(opts.Events)
	if opts.Telemetry != nil {
		if err := opts.Telemetry.attach(); err != nil {
			return nil, 0, err
		}
		xen.AttachTelemetry(h, opts.Telemetry.sampler)
	}
	if opts.Spans != nil {
		// Span IDs derive from the normalized seed, so the same spec
		// always records the same IDs.
		tracer, err := opts.Spans.attach(n.Seed)
		if err != nil {
			return nil, 0, err
		}
		xen.AttachSpans(h, tracer)
	}
	sim := &Simulator{h: h, scheduler: Scheduler(n.Scheduler), opts: opts}
	return sim, n.Horizon.Std(), nil
}
