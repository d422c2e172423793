package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vprobe"
	"vprobe/internal/sim"
	"vprobe/internal/telemetry"
)

// sampleSpans renders a small recorded decision as the JSONL stream the
// CLI reads: one VM placed on host0 after a capacity veto of host2, with
// host1 the losing candidate, then preempted.
func sampleSpans(t *testing.T) []byte {
	t.Helper()
	tr := telemetry.NewTracer(3, 0)
	vm := tr.Begin(0, telemetry.NoSpan, telemetry.SpanVM, "", "vm000", "vm vm000")
	place := tr.Begin(sim.Time(sim.Second), vm, telemetry.SpanPlace, "host0", "vm000", "place vm000 attempt 1")
	tr.SetScore(place, 200)
	tr.Point(sim.Time(sim.Second), place, telemetry.SpanFilter, "host0", "vm000",
		"capacity", "admitted 2, vetoed 1: host2: out of memory")
	sc := tr.Point(sim.Time(sim.Second), place, telemetry.SpanScore, "host0", "vm000",
		"least-loaded", "raw 0.50 × weight 1.00")
	tr.SetScore(sc, 50)
	for _, cand := range []struct {
		host  string
		total float64
	}{{"host0", 200}, {"host1", 120}} {
		ref := tr.Point(sim.Time(sim.Second), place, telemetry.SpanCandidate, cand.host, "vm000",
			"candidate "+cand.host, "least-loaded "+cand.host)
		tr.SetScore(ref, cand.total)
	}
	tr.End(place, sim.Time(sim.Second))
	pre := tr.Point(sim.Time(2*sim.Second), vm, telemetry.SpanPreempt, "host0", "vm000",
		"preempt vm000", "for vm009 (critical > batch), killed")
	tr.SetCost(pre, sim.Duration(2500))
	tr.CloseOpen(sim.Time(3 * sim.Second))
	var buf bytes.Buffer
	if err := tr.WriteSpansJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestQuerySubcommands(t *testing.T) {
	raw := sampleSpans(t)
	cases := []struct {
		args []string
		want []string
	}{
		{[]string{"list"}, []string{"vm000"}},
		{[]string{"summary"}, []string{"place", "preempt", "vms: vm000"}},
		{[]string{"why", "vm000"}, []string{"→ host0", "capacity", "least-loaded"}},
		{[]string{"why-not", "vm000", "host2"}, []string{"vetoed by capacity", "out of memory"}},
		{[]string{"why-not", "vm000", "host1"}, []string{"scored 120.00 vs winner 200.00"}},
		{[]string{"why-not", "vm000", "host0"}, []string{"WAS placed"}},
		{[]string{"rejected", "vm000"}, []string{"never rejected"}},
		{[]string{"preempted", "vm000"}, []string{"for vm009", "cost 2.500ms"}},
		{[]string{"timeline", "vm000"}, []string{"timeline of vm000", "preempt"}},
	}
	for _, tc := range cases {
		out, err := query(bytes.NewReader(raw), tc.args)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Fatalf("%v: missing %q in:\n%s", tc.args, want, out)
			}
		}
	}
}

func TestQueryErrors(t *testing.T) {
	raw := sampleSpans(t)
	for _, args := range [][]string{
		{"why"},                     // missing vm
		{"why-not", "vm000"},        // missing host
		{"list", "extra"},           // extra arg
		{"frobnicate"},              // unknown subcommand
		{"why", "ghost"},            // unknown vm
		{"timeline", "vm000", "x"},  // extra arg
		{"preempted", "no-such-vm"}, // unknown vm
	} {
		if _, err := query(bytes.NewReader(raw), args); err == nil {
			t.Fatalf("query(%v) succeeded, want error", args)
		}
	}
}

func TestQueryEmptyStream(t *testing.T) {
	out, err := query(strings.NewReader(""), []string{"summary"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "empty trace") {
		t.Fatalf("summary of empty stream = %q", out)
	}
	if out, err := query(strings.NewReader(""), []string{"list"}); err != nil || out != "" {
		t.Fatalf("list of empty stream = %q, %v", out, err)
	}
}

func TestQueryBadStream(t *testing.T) {
	if _, err := query(strings.NewReader("not json\n"), []string{"summary"}); err == nil {
		t.Fatal("query accepted a malformed span stream")
	}
}

// writeExports runs a small cluster of the given size and writes its
// metrics (Prometheus text and JSONL series) and Chrome trace into dir.
func writeExports(t *testing.T, dir string, hosts int) (prom, series, chrome string) {
	t.Helper()
	tele := vprobe.NewTelemetry(vprobe.TelemetryOptions{Every: time.Second})
	tracing := vprobe.NewTracing(vprobe.TracingOptions{})
	if _, err := vprobe.RunCluster(context.Background(), vprobe.ClusterSpec{
		Hosts: hosts, Seed: 1, Horizon: vprobe.SpecDuration(20 * time.Second),
	}, vprobe.CompileOptions{Telemetry: tele, Spans: tracing}); err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, fmt.Sprintf("hosts%d", hosts))
	prom, series, chrome = name+".prom", name+".jsonl", name+".json"
	for path, export := range map[string]func(io.Writer) error{
		prom: tele.WritePrometheus, series: tele.WriteJSONL, chrome: tracing.WriteChromeTrace,
	} {
		var buf bytes.Buffer
		if err := export(&buf); err != nil {
			t.Fatal(err)
		}
		writeFile(t, path, buf.String())
	}
	return prom, series, chrome
}

func writeFile(t *testing.T, path, data string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckAndDiff drives check and diff through the CLI: each kind of
// export validates, a malformed file of each kind and an unknown suffix
// fail, and diff compares two runs whose series sets differ.
func TestCheckAndDiff(t *testing.T) {
	dir := t.TempDir()
	prom, seriesA, chrome := writeExports(t, dir, 2)
	_, seriesB, _ := writeExports(t, dir, 3)
	badProm, badChrome, other, empty := filepath.Join(dir, "bad.prom"), filepath.Join(dir, "bad.json"),
		filepath.Join(dir, "x.txt"), filepath.Join(dir, "empty.jsonl")
	writeFile(t, badProm, "vprobe_metric{ 1\n")
	writeFile(t, badChrome, `{"traceEvents":[{"ph":"X"}]`)
	writeFile(t, other, "ok: 1 series\n")
	writeFile(t, empty, "")
	for _, tc := range []struct {
		name string
		args []string
		code int
		want []string // on stdout for exit 0, on stderr otherwise
	}{
		{"prom", []string{"check", prom}, 0, []string{"ok: ", " series, "}},
		{"chrome", []string{"check", chrome}, 0, []string{"valid Chrome trace: "}},
		{"bad prom", []string{"check", badProm}, 1, []string{"bad.prom"}},
		{"bad chrome", []string{"check", badChrome}, 1, []string{"bad.json"}},
		{"unknown suffix", []string{"check", other}, 1, []string{"want a .prom exposition or a .json Chrome trace"}},
		{"diff", []string{"diff", seriesA, seriesB}, 0, []string{
			"hosts2.jsonl (20 samples)", "mean delta", "only in b", "0 series only in a, "}},
		{"diff empty", []string{"diff", seriesA, empty}, 1, []string{"empty.jsonl: no samples"}},
		{"check arity", []string{"check"}, 2, []string{"usage:"}},
		{"no arguments", nil, 2, []string{"usage:"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, stdout.String(), stderr.String())
			}
			out := stdout.String()
			if tc.code != 0 {
				out = stderr.String()
			}
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("output does not mention %q:\n%s", want, out)
				}
			}
		})
	}
}
