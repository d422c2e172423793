package main

import (
	"reflect"
	"strings"
	"testing"
)

func snap(label string, benches map[string]Metrics) Snapshot {
	return Snapshot{Label: label, GoVersion: "go1.22", Benchmarks: benches}
}

func TestRunCheckClean(t *testing.T) {
	base := snap("baseline", map[string]Metrics{
		"BenchmarkHot":  {NsPerOp: 100, AllocsPerOp: 0},
		"BenchmarkWarm": {NsPerOp: 200, AllocsPerOp: 3},
	})
	fresh := snap("", map[string]Metrics{
		"BenchmarkHot":  {NsPerOp: 120, AllocsPerOp: 0}, // +20%, inside tolerance
		"BenchmarkWarm": {NsPerOp: 150, AllocsPerOp: 3}, // faster is always fine
	})
	if code := runCheck([]Snapshot{base}, fresh, "BENCH.json"); code != 0 {
		t.Errorf("exit = %d, want 0", code)
	}
}

func TestRunCheckNsRegression(t *testing.T) {
	base := snap("baseline", map[string]Metrics{"BenchmarkHot": {NsPerOp: 100}})
	fresh := snap("", map[string]Metrics{"BenchmarkHot": {NsPerOp: 126}}) // just past 1.25x
	if code := runCheck([]Snapshot{base}, fresh, "BENCH.json"); code != 1 {
		t.Errorf("exit = %d, want 1 for a >25%% ns/op regression", code)
	}
}

func TestRunCheckAllocRegression(t *testing.T) {
	base := snap("baseline", map[string]Metrics{"BenchmarkHot": {NsPerOp: 100, AllocsPerOp: 0}})
	fresh := snap("", map[string]Metrics{"BenchmarkHot": {NsPerOp: 100, AllocsPerOp: 1}})
	if code := runCheck([]Snapshot{base}, fresh, "BENCH.json"); code != 1 {
		t.Errorf("exit = %d, want 1 when a zero-alloc baseline gains allocs", code)
	}
}

func TestRunCheckAllocGrowthOnNonZeroBaseline(t *testing.T) {
	// Only the zero-alloc contract is enforced: a 3-alloc benchmark drifting
	// to 4 is ns/op-visible but not an alloc failure.
	base := snap("baseline", map[string]Metrics{"BenchmarkWarm": {NsPerOp: 100, AllocsPerOp: 3}})
	fresh := snap("", map[string]Metrics{"BenchmarkWarm": {NsPerOp: 100, AllocsPerOp: 4}})
	if code := runCheck([]Snapshot{base}, fresh, "BENCH.json"); code != 0 {
		t.Errorf("exit = %d, want 0: alloc growth on a non-zero baseline is not enforced", code)
	}
}

func TestRunCheckComparesLastSnapshot(t *testing.T) {
	older := snap("older", map[string]Metrics{"BenchmarkHot": {NsPerOp: 50}})
	newer := snap("newer", map[string]Metrics{"BenchmarkHot": {NsPerOp: 100}})
	fresh := snap("", map[string]Metrics{"BenchmarkHot": {NsPerOp: 110}})
	// 110 vs the last entry (100) is fine; vs the first (50) it would fail.
	if code := runCheck([]Snapshot{older, newer}, fresh, "BENCH.json"); code != 0 {
		t.Errorf("exit = %d, want 0: -check compares against the last entry", code)
	}
}

func TestRunCheckNewBenchmarkAndEmptyHistory(t *testing.T) {
	fresh := snap("", map[string]Metrics{"BenchmarkNew": {NsPerOp: 10}})
	if code := runCheck(nil, fresh, "BENCH.json"); code != 2 {
		t.Errorf("exit = %d, want 2 with no committed snapshot", code)
	}
	base := snap("baseline", map[string]Metrics{"BenchmarkOld": {NsPerOp: 10}})
	if code := runCheck([]Snapshot{base}, fresh, "BENCH.json"); code != 0 {
		t.Errorf("exit = %d, want 0: a benchmark without a baseline is noted, not failed", code)
	}
}

func TestRunCheckOtherCPUModelSkipsNsGatesAllocs(t *testing.T) {
	base := snap("baseline", map[string]Metrics{"BenchmarkHot": {NsPerOp: 100, AllocsPerOp: 0}})
	base.CPUModel = "Intel(R) Xeon(R) Processor"
	slower := snap("", map[string]Metrics{"BenchmarkHot": {NsPerOp: 300, AllocsPerOp: 0}})
	slower.CPUModel = "AMD EPYC 7B13"
	if code := runCheck([]Snapshot{base}, slower, "BENCH.json"); code != 0 {
		t.Errorf("exit = %d, want 0: ns/op is not compared across CPU models", code)
	}
	allocating := snap("", map[string]Metrics{"BenchmarkHot": {NsPerOp: 100, AllocsPerOp: 1}})
	allocating.CPUModel = "AMD EPYC 7B13"
	if code := runCheck([]Snapshot{base}, allocating, "BENCH.json"); code != 1 {
		t.Errorf("exit = %d, want 1: allocs/op stays gated across CPU models", code)
	}
	slower.CPUModel = base.CPUModel
	if code := runCheck([]Snapshot{base}, slower, "BENCH.json"); code != 1 {
		t.Errorf("exit = %d, want 1: ns/op is compared on the same CPU model", code)
	}
}

func TestRunCheckBaselineWithoutModelStaysComparable(t *testing.T) {
	// Entries written before machine metadata existed have no model; their
	// ns/op is still compared.
	base := snap("baseline", map[string]Metrics{"BenchmarkHot": {NsPerOp: 100}})
	fresh := snap("", map[string]Metrics{"BenchmarkHot": {NsPerOp: 126}})
	fresh.CPUModel = "Intel(R) Xeon(R) Processor"
	if code := runCheck([]Snapshot{base}, fresh, "BENCH.json"); code != 1 {
		t.Errorf("exit = %d, want 1: a model-less baseline is compared on ns/op", code)
	}
}

func TestParseCPUModel(t *testing.T) {
	cases := []struct{ cpuinfo, want string }{
		{"processor\t: 0\nvendor_id\t: GenuineIntel\nmodel\t\t: 85\nmodel name\t: Intel(R) Xeon(R) Processor\n" +
			"processor\t: 1\nmodel name\t: Intel(R) Xeon(R) Processor\n", "Intel(R) Xeon(R) Processor"},
		{"processor\t: 0\nBogoMIPS\t: 50.00\nCPU part\t: 0xd0c\n", "unknown"}, // no model name line
		{"model name\t:\n", "unknown"},
		{"", "unknown"},
	}
	for _, c := range cases {
		if got := parseCPUModel(c.cpuinfo); got != c.want {
			t.Errorf("parseCPUModel(%q) = %q, want %q", c.cpuinfo, got, c.want)
		}
	}
}

func TestParseBenchmarksAggregatesRepetitions(t *testing.T) {
	// -count=3 output: min ns/op wins (noise is one-sided), max allocs/op
	// wins (one clean repetition must not hide an allocating one).
	out := `BenchmarkHot-8   100   540.0 ns/op   0 B/op   0 allocs/op
BenchmarkHot-8   100   410.0 ns/op   16 B/op   1 allocs/op
BenchmarkHot-8   100   480.0 ns/op   0 B/op   0 allocs/op
BenchmarkCold 1000 52000 ns/op
PASS`
	got := map[string]Metrics{}
	if err := parseBenchmarks(strings.NewReader(out), got); err != nil {
		t.Fatal(err)
	}
	want := map[string]Metrics{
		"BenchmarkHot":  {NsPerOp: 410, BytesPerOp: 16, AllocsPerOp: 1},
		"BenchmarkCold": {NsPerOp: 52000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %+v, want %+v", got, want)
	}
}

func TestBenchLineParsing(t *testing.T) {
	cases := []struct {
		line string
		name string
		ns   string
	}{
		{"BenchmarkQuantumHotPath-8   7270830   345.8 ns/op   0 B/op   0 allocs/op",
			"BenchmarkQuantumHotPath", "345.8"},
		{"BenchmarkPartition 1000 52000 ns/op", "BenchmarkPartition", "52000"},
		{"ok  \tvprobe\t2.1s", "", ""},
		{"PASS", "", ""},
	}
	for _, c := range cases {
		m := benchLine.FindStringSubmatch(c.line)
		if c.name == "" {
			if m != nil {
				t.Errorf("%q unexpectedly parsed: %v", c.line, m)
			}
			continue
		}
		if m == nil {
			t.Errorf("%q did not parse", c.line)
			continue
		}
		if m[1] != c.name || m[2] != c.ns {
			t.Errorf("%q parsed as (%q, %q), want (%q, %q)", c.line, m[1], m[2], c.name, c.ns)
		}
	}
}
