package vprobe_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"vprobe"
	"vprobe/internal/telemetry"
)

// TestTracingExports covers the public flight recorder end to end: a
// traced single-host run records lifecycle spans, exports valid JSONL and
// a valid Chrome trace, and drops nothing at the default limit.
func TestTracingExports(t *testing.T) {
	tracing := vprobe.NewTracing(vprobe.TracingOptions{})
	s, err := vprobe.NewSimulator(vprobe.Config{
		Scheduler: vprobe.SchedulerVProbe,
		Spans:     tracing,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Tracing() != tracing {
		t.Fatal("Simulator.Tracing() does not return the attached recorder")
	}
	addStandardVMs(t, s)
	if _, err := s.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if tracing.Spans() == 0 {
		t.Fatal("traced run recorded no spans")
	}
	if tracing.Dropped() != 0 {
		t.Fatalf("default limit dropped %d spans", tracing.Dropped())
	}

	var jsonl bytes.Buffer
	if err := tracing.WriteSpans(&jsonl); err != nil {
		t.Fatal(err)
	}
	spans, err := telemetry.ReadSpans(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != tracing.Spans() {
		t.Fatalf("JSONL carries %d spans, recorder says %d", len(spans), tracing.Spans())
	}
	// Both standard VMs have lifecycle spans under the run root.
	vms := map[string]bool{}
	for i := range spans {
		if spans[i].Kind == telemetry.SpanDomain {
			vms[spans[i].VM] = true
		}
	}
	if !vms["measured"] || !vms["burner"] {
		t.Fatalf("domain spans missing VMs: %v", vms)
	}

	var chrome bytes.Buffer
	if err := tracing.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateChromeTrace(chrome.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestTracingAttachOnce pins the recorder reuse error on both run kinds.
func TestTracingAttachOnce(t *testing.T) {
	tracing := vprobe.NewTracing(vprobe.TracingOptions{})
	if _, err := vprobe.NewSimulator(vprobe.Config{Spans: tracing}); err != nil {
		t.Fatal(err)
	}
	if _, err := vprobe.NewSimulator(vprobe.Config{Spans: tracing}); !errors.Is(err, vprobe.ErrTracingAttached) {
		t.Fatalf("reusing a recorder: err = %v, want ErrTracingAttached", err)
	}
	if _, err := vprobe.RunCluster(context.Background(), vprobe.ClusterSpec{
		Horizon: vprobe.SpecDuration(time.Second),
	}, vprobe.CompileOptions{Spans: tracing}); !errors.Is(err, vprobe.ErrTracingAttached) {
		t.Fatalf("reusing a recorder for a cluster: err = %v, want ErrTracingAttached", err)
	}
}

// runStandardSpans runs the standard scenario and returns the rendered
// report plus the event stream, optionally with the flight recorder on.
func runStandardSpans(t *testing.T, withSpans bool) string {
	t.Helper()
	var sb strings.Builder
	cfg := vprobe.Config{
		Scheduler: vprobe.SchedulerVProbe,
		Events: vprobe.EventFunc(func(ev vprobe.Event) {
			sb.WriteString(ev.At.String())
			sb.WriteByte(' ')
			sb.WriteString(ev.Detail)
			sb.WriteByte('\n')
		}),
	}
	if withSpans {
		cfg.Spans = vprobe.NewTracing(vprobe.TracingOptions{})
	}
	s, err := vprobe.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addStandardVMs(t, s)
	rep, err := s.Run(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sb.WriteString(rep.String())
	return sb.String()
}

// TestTracingReportIdentical is the acceptance criterion at the public
// API: report and event stream are byte-identical with tracing on or off.
func TestTracingReportIdentical(t *testing.T) {
	off := runStandardSpans(t, false)
	on := runStandardSpans(t, true)
	if off != on {
		t.Fatal("simulation output diverges with tracing attached")
	}
}

// TestClusterTracing runs a public cluster whose spec sets trace and
// checks the recorder RunCluster created answers a provenance query end
// to end.
func TestClusterTracing(t *testing.T) {
	rep, err := vprobe.RunCluster(context.Background(), vprobe.ClusterSpec{
		Hosts:   2,
		Seed:    9,
		Horizon: vprobe.SpecDuration(60 * time.Second),
		Workers: 4,
		Trace:   true,
	}, vprobe.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Placed == 0 {
		t.Fatal("nothing placed")
	}
	tracing := rep.Tracing()
	if tracing == nil {
		t.Fatal("traced spec returned no recorder")
	}
	if tracing.Spans() == 0 {
		t.Fatal("traced cluster recorded no spans")
	}
	var jsonl bytes.Buffer
	if err := tracing.WriteSpans(&jsonl); err != nil {
		t.Fatal(err)
	}
	spans, err := telemetry.ReadSpans(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	ix := telemetry.NewSpanIndex(spans)
	vms := ix.VMs()
	if len(vms) == 0 {
		t.Fatal("span index has no VMs")
	}
	why, err := ix.ExplainWhy(vms[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(why, "decision place") {
		t.Fatalf("ExplainWhy(%s) = %q", vms[0], why)
	}
}
