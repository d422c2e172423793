// Command vprobe-bench parses `go test -bench` output on stdin and appends
// one snapshot entry to a JSON history file (default BENCH_hotpath.json).
// Each snapshot records ns/op, B/op, and allocs/op per benchmark, so the
// file accumulates an ordered before/after history of the hot-path numbers:
// the first entry is the pre-refactor baseline, later entries track every
// `make bench` run since. See EXPERIMENTS.md for how to read the file.
//
// With -check, the fresh run is compared against the last committed
// snapshot instead of appended: a benchmark that regresses more than 25%
// in ns/op, or that gains any allocs/op while the committed entry reports
// zero, fails the check. ns/op on shared CI hardware is noisy, hence the
// wide tolerance; allocs/op is deterministic, hence none.
//
// Each snapshot records the machine it was measured on: the CPU model
// (from /proc/cpuinfo, "unknown" elsewhere) and GOMAXPROCS. ns/op from
// another CPU model says nothing about a regression, so when the
// baseline's model differs from the current one -check prints a note and
// skips the ns/op comparison; allocs/op is machine-independent and stays
// gated. Entries written before the metadata existed carry no model and
// stay comparable.
//
// Repeated result lines for the same benchmark (from `go test -count=N`)
// are aggregated: minimum ns/op — the least noise-sensitive statistic,
// since contention only ever adds time — and maximum B/op and allocs/op,
// so a single clean repetition cannot hide an allocating one. Feed both
// `make bench` and `make bench-check` -count=3 output and a one-off noisy
// scheduling window neither pollutes the baseline nor fakes a regression.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | go run ./cmd/vprobe-bench -label my-change
//	go test -run '^$' -bench . -benchmem . | go run ./cmd/vprobe-bench -check
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's reported costs.
type Metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Snapshot is one appended history entry: every benchmark parsed from a
// single `go test -bench` run.
type Snapshot struct {
	Label     string `json:"label"`
	GoVersion string `json:"go_version"`
	// CPUModel and GOMAXPROCS identify the machine; both are empty in
	// entries written before they were recorded.
	CPUModel   string             `json:"cpu_model,omitempty"`
	GOMAXPROCS int                `json:"gomaxprocs,omitempty"`
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

// maxNsRegression is the tolerated ns/op growth factor in -check mode.
const maxNsRegression = 1.25

// benchLine matches one result line, e.g.
//
//	BenchmarkQuantumHotPath-8   7270830   345.8 ns/op   0 B/op   0 allocs/op
//
// The -8 GOMAXPROCS suffix is stripped so snapshots from different machines
// key identically; B/op and allocs/op are optional (absent without
// -benchmem or b.ReportAllocs).
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op\s+([\d.]+) allocs/op)?`)

func main() {
	out := flag.String("out", "BENCH_hotpath.json", "history file to append the snapshot to")
	label := flag.String("label", "", "snapshot label (required unless -check)")
	check := flag.Bool("check", false,
		"compare stdin against the last committed snapshot instead of appending")
	flag.Parse()
	if !*check && *label == "" {
		fmt.Fprintln(os.Stderr, "vprobe-bench: -label is required")
		os.Exit(2)
	}

	// The benchmarks ran in the `go test` process feeding stdin, on this
	// machine and under the same environment, so this process's CPU model
	// and GOMAXPROCS are theirs.
	snap := Snapshot{
		Label:      *label,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: map[string]Metrics{},
	}
	if err := parseBenchmarks(os.Stdin, snap.Benchmarks); err != nil {
		fmt.Fprintf(os.Stderr, "vprobe-bench: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "vprobe-bench: no benchmark lines on stdin")
		os.Exit(1)
	}

	var history []Snapshot
	if data, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(data, &history); err != nil {
			fmt.Fprintf(os.Stderr, "vprobe-bench: %s is not a snapshot history: %v\n", *out, err)
			os.Exit(1)
		}
	} else if !os.IsNotExist(err) {
		fmt.Fprintf(os.Stderr, "vprobe-bench: %v\n", err)
		os.Exit(1)
	}

	if *check {
		os.Exit(runCheck(history, snap, *out))
	}

	history = append(history, snap)

	data, err := json.MarshalIndent(history, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "vprobe-bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "vprobe-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("vprobe-bench: appended snapshot %q (%d benchmarks) to %s (%d entries)\n",
		snap.Label, len(snap.Benchmarks), *out, len(history))
}

// cpuModel reports the machine's CPU model from /proc/cpuinfo, or
// "unknown" where that file is absent or names no model.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	return parseCPUModel(string(data))
}

// parseCPUModel returns the first non-empty "model name" value of a
// /proc/cpuinfo listing, or "unknown".
func parseCPUModel(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		key, val, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(key) == "model name" {
			if v := strings.TrimSpace(val); v != "" {
				return v
			}
		}
	}
	return "unknown"
}

// parseBenchmarks scans `go test -bench` output and fills into with one
// Metrics per benchmark name. Repetitions of the same benchmark (`go test
// -count=N`) collapse to min ns/op and max B/op / allocs/op: time noise
// is one-sided (contention adds, never subtracts), while the alloc gate
// must see the worst repetition.
func parseBenchmarks(r io.Reader, into map[string]Metrics) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		var met Metrics
		met.NsPerOp, _ = strconv.ParseFloat(m[2], 64)
		if m[3] != "" {
			met.BytesPerOp, _ = strconv.ParseFloat(m[3], 64)
			met.AllocsPerOp, _ = strconv.ParseFloat(m[4], 64)
		}
		if prev, ok := into[m[1]]; ok {
			met.NsPerOp = math.Min(met.NsPerOp, prev.NsPerOp)
			met.BytesPerOp = math.Max(met.BytesPerOp, prev.BytesPerOp)
			met.AllocsPerOp = math.Max(met.AllocsPerOp, prev.AllocsPerOp)
		}
		into[m[1]] = met
	}
	return sc.Err()
}

// runCheck compares the fresh snapshot against the last committed entry
// and returns the process exit code: 0 clean, 1 regression. ns/op is
// compared only when the baseline has no CPU model or the same one.
func runCheck(history []Snapshot, fresh Snapshot, out string) int {
	if len(history) == 0 {
		fmt.Fprintf(os.Stderr, "vprobe-bench: -check needs at least one committed snapshot in %s\n", out)
		return 2
	}
	base := history[len(history)-1]
	compareNs := base.CPUModel == "" || base.CPUModel == fresh.CPUModel
	if !compareNs {
		fmt.Printf("vprobe-bench: note: snapshot %q was measured on %q, this run on %q: ns/op not compared, allocs/op still gated\n",
			base.Label, base.CPUModel, fresh.CPUModel)
	}

	names := make([]string, 0, len(fresh.Benchmarks))
	for name := range fresh.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failures := 0
	compared := 0
	for _, name := range names {
		cur := fresh.Benchmarks[name]
		ref, ok := base.Benchmarks[name]
		if !ok {
			fmt.Printf("vprobe-bench: %s: new benchmark, no baseline (label %q)\n", name, base.Label)
			continue
		}
		compared++
		if ref.AllocsPerOp == 0 && cur.AllocsPerOp > 0 {
			fmt.Printf("vprobe-bench: FAIL %s: %.0f allocs/op, baseline %q is allocation-free\n",
				name, cur.AllocsPerOp, base.Label)
			failures++
		}
		if compareNs && ref.NsPerOp > 0 && cur.NsPerOp > ref.NsPerOp*maxNsRegression {
			fmt.Printf("vprobe-bench: FAIL %s: %.1f ns/op vs %.1f ns/op in %q (+%.0f%%, tolerance %.0f%%)\n",
				name, cur.NsPerOp, ref.NsPerOp, base.Label,
				(cur.NsPerOp/ref.NsPerOp-1)*100, (maxNsRegression-1)*100)
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "vprobe-bench: %d regression(s) vs snapshot %q\n", failures, base.Label)
		return 1
	}
	fmt.Printf("vprobe-bench: check clean: %d benchmark(s) within bounds of snapshot %q\n",
		compared, base.Label)
	return 0
}
