package vprobe_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"vprobe"
	"vprobe/internal/xen"
)

// instrumented is the instrumented standard scenario: a measured VM
// beside an endless cache-hungry burner, under vProbe for horizon.
func instrumented(horizon time.Duration) vprobe.ScenarioSpec {
	return vprobe.ScenarioSpec{
		Scheduler: string(vprobe.SchedulerVProbe),
		Horizon:   vprobe.SpecDuration(horizon),
		VMs: []vprobe.VMSpec{
			{Name: "measured", MemoryMB: 8 * 1024, VCPUs: 8, Memory: "stripe",
				FillGuestIdle: true, Apps: apps("soplex", 4)},
			{Name: "burner", MemoryMB: 1024, VCPUs: 8, Apps: apps("hungry", 8)},
		},
	}
}

// eventLines appends each event to sb as its time and detail line.
func eventLines(sb *strings.Builder) vprobe.EventSink {
	return vprobe.EventFunc(func(ev vprobe.Event) {
		sb.WriteString(ev.At.String())
		sb.WriteByte(' ')
		sb.WriteString(ev.Detail)
		sb.WriteByte('\n')
	})
}

// TestTelemetryExports covers the public collector end to end: >= 10
// distinct series in valid Prometheus exposition and one JSONL record per
// simulated second.
func TestTelemetryExports(t *testing.T) {
	tele := vprobe.NewTelemetry(vprobe.TelemetryOptions{})
	run(t, instrumented(10*time.Second), vprobe.CompileOptions{Telemetry: tele})
	if tele.Samples() != 10 {
		t.Fatalf("%d samples over 10 s at the default 1 s period, want 10", tele.Samples())
	}

	var prom bytes.Buffer
	if err := tele.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(prom.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		names[strings.FieldsFunc(line, func(r rune) bool { return r == '{' || r == ' ' })[0]] = true
	}
	if len(names) < 8 { // distinct metric names; series incl. labels is larger
		t.Fatalf("only %d metric names exported: %v", len(names), names)
	}

	var jsonl bytes.Buffer
	if err := tele.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&jsonl)
	rows, series := 0, 0
	for sc.Scan() {
		var rec map[string]float64
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("JSONL row %d: %v", rows, err)
		}
		if want := float64(rows + 1); rec["t"] != want {
			t.Fatalf("row %d has t=%v, want %v (one record per simulated second)",
				rows, rec["t"], want)
		}
		rows++
		series = len(rec) - 1
	}
	if rows != 10 {
		t.Fatalf("%d JSONL rows, want 10", rows)
	}
	if series < 10 {
		t.Fatalf("JSONL rows carry %d series, want >= 10", series)
	}
}

// TestTelemetryAttachOnce pins the collector reuse error.
func TestTelemetryAttachOnce(t *testing.T) {
	tele := vprobe.NewTelemetry(vprobe.TelemetryOptions{})
	compile(t, oneVM(), vprobe.CompileOptions{Telemetry: tele})
	if _, _, err := vprobe.CompileScenario(oneVM(), vprobe.CompileOptions{Telemetry: tele}); !errors.Is(err, vprobe.ErrTelemetryAttached) {
		t.Fatalf("reusing a collector: err = %v, want ErrTelemetryAttached", err)
	}
	if _, err := vprobe.RunCluster(context.Background(), vprobe.ClusterSpec{
		Horizon: vprobe.SpecDuration(time.Second),
	}, vprobe.CompileOptions{Telemetry: tele}); !errors.Is(err, vprobe.ErrTelemetryAttached) {
		t.Fatalf("reusing a collector for a cluster: err = %v, want ErrTelemetryAttached", err)
	}
}

// runTelemetryScenario runs the standard scenario and returns the report
// text plus the full event stream.
func runTelemetryScenario(t *testing.T, withTele bool) string {
	t.Helper()
	var sb strings.Builder
	opts := vprobe.CompileOptions{Events: eventLines(&sb)}
	if withTele {
		opts.Telemetry = vprobe.NewTelemetry(vprobe.TelemetryOptions{})
	}
	sb.WriteString(run(t, instrumented(5*time.Second), opts).String())
	return sb.String()
}

// TestTelemetryReportIdentical is the acceptance criterion at the public
// API: report and event stream are byte-identical with telemetry on or
// off.
func TestTelemetryReportIdentical(t *testing.T) {
	off := runTelemetryScenario(t, false)
	on := runTelemetryScenario(t, true)
	if off != on {
		t.Fatal("simulation output diverges with telemetry attached")
	}
}

// TestEventFanoutNilFastPath pins the zero-cost-when-off contract: with no
// sink configured the hypervisor-level hook must be nil (not a hook that
// drops events), so event formatting is skipped entirely.
func TestEventFanoutNilFastPath(t *testing.T) {
	s, _ := compile(t, oneVM(), vprobe.CompileOptions{})
	if s.Hypervisor().EventFn != nil {
		t.Fatal("no sinks configured but hypervisor EventFn is non-nil")
	}

	s, _ = compile(t, oneVM(), vprobe.CompileOptions{Events: vprobe.EventFunc(func(vprobe.Event) {})})
	if s.Hypervisor().EventFn == nil {
		t.Fatal("sink configured but hypervisor EventFn is nil")
	}
}

// TestEventFunc asserts the EventFunc adapter forwards each event
// unchanged.
func TestEventFunc(t *testing.T) {
	var fromFunc []vprobe.Event
	sink := vprobe.EventFunc(func(ev vprobe.Event) { fromFunc = append(fromFunc, ev) })
	want := vprobe.Event{At: 3 * time.Second, Kind: vprobe.EventDispatch, VCPU: 2, Node: 1, Detail: "x"}
	sink.HandleEvent(want)
	if len(fromFunc) != 1 || fromFunc[0] != want {
		t.Fatalf("EventFunc delivered %+v, want %+v", fromFunc, want)
	}
}

// TestSealedTelemetryReleasesRun checks that a collector sealed by its run
// keeps no reference to the simulation: holding the collector (as
// vprobe-serve holds a done run's) must not keep the hypervisor alive,
// and the exports still render.
func TestSealedTelemetryReleasesRun(t *testing.T) {
	tele := vprobe.NewTelemetry(vprobe.TelemetryOptions{})
	var hv weak.Pointer[xen.Hypervisor]
	func() {
		sim, horizon, err := vprobe.CompileScenario(instrumented(3*time.Second), vprobe.CompileOptions{Telemetry: tele})
		if err != nil {
			t.Fatal(err)
		}
		hv = weak.Make(sim.Hypervisor())
		if _, err := sim.RunContext(context.Background(), horizon); err != nil {
			t.Fatal(err)
		}
	}()
	runtime.GC()
	runtime.GC()
	if hv.Value() != nil {
		t.Fatal("the sealed collector keeps the hypervisor alive")
	}
	var prom bytes.Buffer
	if err := tele.WritePrometheus(&prom); err != nil || tele.Samples() != 3 {
		t.Fatalf("sealed exports: %d samples, err %v", tele.Samples(), err)
	}
	if !strings.Contains(prom.String(), "\nxen_dispatches_total ") {
		t.Fatalf("sealed exposition lost its series:\n%s", prom.String())
	}
}
