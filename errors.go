package vprobe

import (
	"errors"

	"vprobe/internal/spec"
)

// Sentinel errors returned (wrapped) by the public API, for callers to
// match with errors.Is.
var (
	// ErrUnknownTopology: Config.Topology names no machine preset.
	ErrUnknownTopology = errors.New("vprobe: unknown topology")
	// ErrUnknownScheduler: Config.Scheduler names no registered policy.
	ErrUnknownScheduler = errors.New("vprobe: unknown scheduler")
	// ErrNoFreeVCPU: every VCPU of the VM already carries an app.
	ErrNoFreeVCPU = errors.New("vprobe: no free VCPU")
	// ErrAlreadyStarted: the operation is only valid before Run.
	ErrAlreadyStarted = errors.New("vprobe: simulation already started")
	// ErrTelemetryAttached: the Telemetry collector was already handed to
	// another run; each collector records exactly one.
	ErrTelemetryAttached = errors.New("vprobe: telemetry already attached to a run")
	// ErrTracingAttached: the Tracing recorder was already handed to
	// another run; each recorder holds exactly one run's spans.
	ErrTracingAttached = errors.New("vprobe: tracing already attached to a run")
	// ErrAlreadyRun: the Simulator (or internal cluster) value has already
	// completed a run; simulation state is consumed by running, so a
	// second Run on the same value would continue from — and corrupt —
	// the first run's state. Build a fresh Simulator instead. The guard
	// exists for pooled reuse under vprobe-serve, where recycling a used
	// simulator must fail loudly rather than return wrong results.
	ErrAlreadyRun = errors.New("vprobe: simulator already consumed by a run")

	// ErrSpecVersion and ErrInvalidSpec re-export the spec layer's
	// sentinels (internal/spec), so API callers can match validation
	// failures from CompileScenario / RunCluster without reaching
	// into internal packages.
	ErrSpecVersion = spec.ErrVersion
	ErrInvalidSpec = spec.ErrInvalid
)
