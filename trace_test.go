package vprobe_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"vprobe"
	"vprobe/internal/telemetry"
	"vprobe/internal/xen"
)

// TestTracingExports covers the public flight recorder end to end: a
// traced single-host run records lifecycle spans, exports valid JSONL and
// a valid Chrome trace, and drops nothing at the default limit.
func TestTracingExports(t *testing.T) {
	tracing := vprobe.NewTracing(vprobe.TracingOptions{})
	s, horizon := compile(t, instrumented(5*time.Second), vprobe.CompileOptions{Spans: tracing})
	if s.Tracing() != tracing {
		t.Fatal("Simulator.Tracing() does not return the attached recorder")
	}
	if _, err := s.RunContext(context.Background(), horizon); err != nil {
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
	compile(t, oneVM(), vprobe.CompileOptions{Spans: tracing})
	if _, _, err := vprobe.CompileScenario(oneVM(), vprobe.CompileOptions{Spans: tracing}); !errors.Is(err, vprobe.ErrTracingAttached) {
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
	opts := vprobe.CompileOptions{Events: eventLines(&sb)}
	if withSpans {
		opts.Spans = vprobe.NewTracing(vprobe.TracingOptions{})
	}
	sb.WriteString(run(t, instrumented(5*time.Second), opts).String())
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

// TestSealedTracingReleasesRun checks that a recorder sealed by its run
// keeps no reference to the simulation: holding it (as vprobe-serve holds
// a done run's) keeps neither the hypervisor of a scenario alive nor the
// cluster of a cluster run — watched through its arrival buffer, which
// only the cluster holds — and both exports still render.
func TestSealedTracingReleasesRun(t *testing.T) {
	var hv weak.Pointer[xen.Hypervisor]
	var scenario *vprobe.Tracing
	func() {
		sim, horizon := compile(t, instrumented(3*time.Second), vprobe.CompileOptions{
			Spans: vprobe.NewTracing(vprobe.TracingOptions{})})
		hv = weak.Make(sim.Hypervisor())
		if _, err := sim.RunContext(context.Background(), horizon); err != nil {
			t.Fatal(err)
		}
		scenario = sim.Tracing()
	}()
	var arrivals weak.Pointer[bytes.Buffer]
	var cluster *vprobe.Tracing
	func() {
		w := new(bytes.Buffer)
		arrivals = weak.Make(w)
		rep, err := vprobe.RunCluster(context.Background(), vprobe.ClusterSpec{
			Hosts: 2, Horizon: vprobe.SpecDuration(30 * time.Second), Workers: 1, Trace: true,
		}, vprobe.CompileOptions{Arrivals: w})
		if err != nil {
			t.Fatal(err)
		}
		if w.Len() == 0 {
			t.Fatal("the cluster wrote no arrivals")
		}
		cluster = rep.Tracing()
	}()
	runtime.GC()
	runtime.GC()
	if hv.Value() != nil {
		t.Error("the sealed recorder keeps the hypervisor alive")
	}
	if arrivals.Value() != nil {
		t.Error("the sealed recorder keeps the cluster alive")
	}
	for name, tr := range map[string]*vprobe.Tracing{"scenario": scenario, "cluster": cluster} {
		var jsonl, chrome bytes.Buffer
		if err := tr.WriteSpans(&jsonl); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteChromeTrace(&chrome); err != nil {
			t.Fatal(err)
		}
		spans, err := telemetry.ReadSpans(&jsonl)
		if err != nil || len(spans) == 0 || len(spans) != tr.Spans() || tr.Index().Len() != len(spans) {
			t.Fatalf("%s: sealed recorder exports %d spans of %d, err %v", name, len(spans), tr.Spans(), err)
		}
		if _, err := telemetry.ValidateChromeTrace(chrome.Bytes()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
