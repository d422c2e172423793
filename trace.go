package vprobe

import (
	"io"

	"vprobe/internal/telemetry"
)

// TracingOptions configures NewTracing.
type TracingOptions struct {
	// Limit caps the number of recorded spans (default 1 Mi spans; spans
	// past the cap are counted in Dropped, never recorded).
	Limit int
}

// Tracing records a run's placement flight recorder: virtual-time spans
// for VM lifecycles, placement decisions with their full per-plugin
// filter/score provenance, migrations, preemptions, gang admissions,
// backfills, and descheduler moves. Create it with NewTracing, hand it to
// exactly one CompileOptions, and after the run export the spans
// with WriteSpans (JSONL, the vprobe-explain input format) or
// WriteChromeTrace (loadable in Perfetto or chrome://tracing).
//
// The recorder is sealed when its run returns, as an EventLog and a
// Telemetry are: its storage is cut to the recorded spans, and it holds no
// reference to the simulation, so keeping it keeps no model alive. Both
// exports render from those spans whenever they are called.
//
// Span IDs derive deterministically from the run seed, and all recording
// happens on the deterministic engine goroutine off the quantum hot path:
// the same seed yields the same span file byte for byte at every worker
// count, and attaching tracing never changes simulation results — reports
// and event streams stay byte-identical with tracing on or off.
type Tracing struct {
	limit    int
	tracer   *telemetry.Tracer
	attached bool
}

// NewTracing builds an empty flight recorder.
func NewTracing(opts TracingOptions) *Tracing {
	return &Tracing{limit: opts.Limit}
}

// attach claims the recorder for one run, building the tracer with the
// run's effective seed (span IDs derive from it); a second claim fails
// with ErrTracingAttached.
func (t *Tracing) attach(seed uint64) (*telemetry.Tracer, error) {
	if t.attached {
		return nil, ErrTracingAttached
	}
	t.attached = true
	t.tracer = telemetry.NewTracer(seed, t.limit)
	return t.tracer, nil
}

// seal ends recording once the run has returned.
func (t *Tracing) seal() { t.tracer.Seal() }

// Spans is the number of spans recorded so far.
func (t *Tracing) Spans() int { return t.tracer.Len() }

// Dropped is the number of spans discarded past the configured limit.
func (t *Tracing) Dropped() int { return t.tracer.Dropped() }

// WriteSpans writes the recorded spans as JSON Lines, one span per line
// in record order — the input format of vprobe-explain. An empty recorder
// writes a valid zero-line stream.
func (t *Tracing) WriteSpans(w io.Writer) error {
	return t.tracer.WriteSpansJSONL(w)
}

// WriteChromeTrace writes the recorded spans as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing. Hosts map to threads.
func (t *Tracing) WriteChromeTrace(w io.Writer) error {
	return t.tracer.WriteChromeTrace(w)
}

// Index returns the recorded spans indexed for provenance queries: the
// index vprobe-explain builds by reading a span file back.
func (t *Tracing) Index() *telemetry.SpanIndex {
	return telemetry.NewSpanIndex(t.tracer.Spans())
}
