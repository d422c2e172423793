package vprobe_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"vprobe"
)

// addStandardVMs populates the instrumented standard scenario: a measured
// VM beside an endless cache-hungry burner.
func addStandardVMs(t *testing.T, s *vprobe.Simulator) {
	t.Helper()
	vm, err := s.AddVM(vprobe.VMConfig{
		Name: "measured", MemoryMB: 8 * 1024, VCPUs: 8,
		Memory: vprobe.MemStripe, FillGuestIdle: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := vm.RunApp("soplex"); err != nil {
			t.Fatal(err)
		}
	}
	burner, err := s.AddVM(vprobe.VMConfig{Name: "burner", MemoryMB: 1024, VCPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := burner.RunApp("hungry"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTelemetryExports covers the public collector end to end: >= 10
// distinct series in valid Prometheus exposition and one JSONL record per
// simulated second.
func TestTelemetryExports(t *testing.T) {
	tele := vprobe.NewTelemetry(vprobe.TelemetryOptions{})
	s, err := vprobe.NewSimulator(vprobe.Config{
		Scheduler: vprobe.SchedulerVProbe,
		Telemetry: tele,
	})
	if err != nil {
		t.Fatal(err)
	}
	addStandardVMs(t, s)
	if _, err := s.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
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
	if _, err := vprobe.NewSimulator(vprobe.Config{Telemetry: tele}); err != nil {
		t.Fatal(err)
	}
	if _, err := vprobe.NewSimulator(vprobe.Config{Telemetry: tele}); !errors.Is(err, vprobe.ErrTelemetryAttached) {
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
	cfg := vprobe.Config{
		Scheduler: vprobe.SchedulerVProbe,
		Events: vprobe.EventFunc(func(ev vprobe.Event) {
			sb.WriteString(ev.At.String())
			sb.WriteByte(' ')
			sb.WriteString(ev.Detail)
			sb.WriteByte('\n')
		}),
	}
	if withTele {
		cfg.Telemetry = vprobe.NewTelemetry(vprobe.TelemetryOptions{})
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
	s, err := vprobe.NewSimulator(vprobe.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Hypervisor().EventFn != nil {
		t.Fatal("no sinks configured but hypervisor EventFn is non-nil")
	}

	s, err = vprobe.NewSimulator(vprobe.Config{
		Events: vprobe.EventFunc(func(vprobe.Event) {}),
	})
	if err != nil {
		t.Fatal(err)
	}
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
