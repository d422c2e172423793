package vprobe

import (
	"io"
	"time"

	"vprobe/internal/sim"
	"vprobe/internal/telemetry"
)

// TelemetryOptions configures NewTelemetry.
type TelemetryOptions struct {
	// Every is the sampling period in virtual time (default one simulated
	// second, aligned with the vProbe-family PMU sampling period).
	Every time.Duration
}

// Telemetry collects metric time series from one run. Create it with
// NewTelemetry, hand it to exactly one Config or CompileOptions, and after
// the run export the final state with WritePrometheus and the per-sample
// series with WriteJSONL.
//
// All sampling happens in virtual time on the simulation's own event
// engine, so collection is deterministic: the same seed yields the same
// series byte for byte, and attaching telemetry never changes simulation
// results — reports and event streams stay byte-identical with telemetry
// on or off.
type Telemetry struct {
	sampler  *telemetry.Sampler
	attached bool
}

// NewTelemetry builds an empty collector.
func NewTelemetry(opts TelemetryOptions) *Telemetry {
	return &Telemetry{sampler: telemetry.NewSampler(
		telemetry.NewRegistry(), sim.Duration(opts.Every.Microseconds()))}
}

// attach claims the collector for one run; a second claim fails with
// ErrTelemetryAttached (the registry and ring hold one run's series).
func (t *Telemetry) attach() error {
	if t.attached {
		return ErrTelemetryAttached
	}
	t.attached = true
	return nil
}

// Samples is the number of snapshots taken so far (one per period).
func (t *Telemetry) Samples() int { return t.sampler.Rows() }

// WritePrometheus writes the final value of every series in Prometheus
// text exposition format.
func (t *Telemetry) WritePrometheus(w io.Writer) error {
	return t.sampler.Registry().WritePrometheus(w)
}

// WriteJSONL writes the sampled time series as JSON Lines: one object per
// simulated sampling period with a "t" key (virtual seconds) and one key
// per series.
func (t *Telemetry) WriteJSONL(w io.Writer) error {
	return t.sampler.WriteJSONL(w)
}
