// Command benchmark is the repository's end-to-end benchmark. One process
// runs one workload for one seed, checks that the program's outputs are
// correct, and prints its metrics as the last line of standard output:
//
//	go run . -workload paper-batch -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the line carries the end-to-end metrics; with -trace 1 the
// workload runs once more with timing wrappers around the layers it
// crosses, the line carries the per-layer metrics, and the wall-clock
// spans go to <trace-dir>/spans.jsonl. See README.md for the workloads,
// the metrics, and what each layer metric is expected to move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runDeadline bounds a whole run, leaving headroom under the three minutes
// a run may take.
const runDeadline = 165 * time.Second

// metricDef is one metric the benchmark reports.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists what an untraced run reports. wall_s and cpu_s are per
// unit of the workload's work: one suite pass, one cluster run, or one
// request.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists what a traced run reports. A metric of a layer the
// workload does not reach reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace.overhead_ratio", "ratio"},
		{"unexplained_share", "ratio"},
		{"paper_gap_pp", "pp"},
	}
	ids := append(append([]string(nil), paperBatch.ids...), paperServers.ids...)
	sort.Strings(ids)
	for _, id := range ids {
		defs = append(defs, metricDef{"experiments." + id + ".wall_s", "s"})
	}
	return append(defs, []metricDef{
		{"harness.scenarios", "count"},
		{"harness.sim_s", "s"},
		{"harness.host_ms_per_sim_s", "ms/s"},
		{"harness.tail_s", "s"},
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"xen.dispatches", "count"},
		{"xen.ns_per_dispatch", "ns"},
		{"xen.self_share", "ratio"},
		{"sched.pick_next.calls", "count"},
		{"sched.pick_next.ns_per_call", "ns"},
		{"sched.pick_next.p99_ns", "ns"},
		{"sched.steals.local", "count"},
		{"sched.steals.remote", "count"},
		{"sched.steal_yield", "ratio"},
		{"sched.on_tick.calls", "count"},
		{"sched.on_tick.ns_per_call", "ns"},
		{"sched.on_period.calls", "count"},
		{"sched.on_period.us_per_call", "us"},
		{"core.reassignments", "count"},
		{"cluster.filter.calls", "count"},
		{"cluster.filter.ns_per_call", "ns"},
		{"cluster.score.calls", "count"},
		{"cluster.score.ns_per_call", "ns"},
		{"cluster.score.calls_per_decision", "ratio"},
		{"cluster.place_us.p50", "us"},
		{"cluster.place_us.p99", "us"},
		{"cluster.place_s", "s"},
		{"cluster.advance_s", "s"},
		{"cluster.other_s", "s"},
		{"cluster.arrivals", "count"},
		{"cluster.placed", "count"},
		{"cluster.retries", "count"},
		{"cluster.rejected", "count"},
		{"cluster.departed", "count"},
		{"cluster.migrations", "count"},
		{"cluster.preemptions", "count"},
		{"cluster.gangs", "count"},
		{"cluster.backfills", "count"},
		{"cluster.desched_moves", "count"},
		{"cluster.retry_ratio", "ratio"},
		{"spec.decode_validate_us.p50", "us"},
		{"spec.compile_us.p50", "us"},
		{"serve.lo.p50_ms", "ms"},
		{"serve.lo.p99_ms", "ms"},
		{"serve.hi.p50_ms", "ms"},
		{"serve.hi.p99_ms", "ms"},
		{"serve.hit_ms.p50", "ms"},
		{"serve.hit_ms.p99", "ms"},
		{"serve.miss_ms.p50", "ms"},
		{"serve.miss_ms.p99", "ms"},
		{"serve.events_get_ms.p50", "ms"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.gen_late_ms.p99", "ms"},
		{"serve.backlog_max", "count"},
	}...)
}()

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
}

// result is one workload run's outcome.
type result struct {
	// attempted and failed count operations: experiments, cluster runs,
	// or requests. A failed operation errored, timed out, answered
	// non-2xx, or produced output that did not match its reference.
	attempted, failed int
	// problems describes every failure, plus checks that are not tied to
	// one operation (traced-vs-untraced transparency, metric cross-checks).
	problems []string
	// checkFailures counts the problems that are not operation failures.
	checkFailures int
	values        map[string]float64
	// notes are diagnostics for standard error, such as output digests
	// and percentiles reported from too few samples.
	notes []string
	// procs is the GOMAXPROCS the workload ran with.
	procs int
}

// newResult starts a workload's result; a workload that sets its own
// GOMAXPROCS does so first.
func newResult() *result {
	return &result{values: map[string]float64{}, procs: runtime.GOMAXPROCS(0)}
}

// fail records one failed operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// checkFailed records a failed check that is not an operation.
func (r *result) checkFailed(format string, args ...any) {
	r.checkFailures++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.failed == 0 && r.checkFailures == 0 }

// pct records a latency percentile and notes when too few samples lie
// beyond it for the value to be trusted.
func (r *result) pct(name string, samples []float64, p float64) {
	if !supported(len(samples), p) {
		r.note("%s: p%g of %d samples has fewer than %d beyond it", name, 100*p, len(samples), minBeyond)
	}
	r.values[name] = percentile(samples, p)
}

// workloads maps each workload name to its full-size runner.
var workloads = map[string]func(context.Context, runConfig) (*result, error){
	"paper-batch":   func(ctx context.Context, rc runConfig) (*result, error) { return runPaper(ctx, paperBatch, rc) },
	"paper-servers": func(ctx context.Context, rc runConfig) (*result, error) { return runPaper(ctx, paperServers, rc) },
	"fleet-churn":   func(ctx context.Context, rc runConfig) (*result, error) { return runFleet(ctx, fleetChurn, rc) },
	"serve-mix":     func(ctx context.Context, rc runConfig) (*result, error) { return runServe(ctx, serveMix, rc) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed (1 tunes, 2 is held out)")
	seconds := fs.Float64("seconds", 20, "measured time per run")
	traceFlag := fs.Int("trace", 0, "1 reruns the workload with timing wrappers and reports per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory for <workload>-seed<n>/spans.jsonl")
	summary := fs.String("summarize", "", "instead of running, summarize the runs whose standard output this file collects")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summary != "" {
		if err := summarize(*summary, stdout); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}
	runner, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: -seconds must be positive, got %v\n", *seconds)
		return 2
	}
	rc := runConfig{
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traceFlag == 1,
		traceDir: filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d", *name, *seed)),
	}

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, err := runner(ctx, rc)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		res.values["peak_rss_mb"] = rss
	}
	line, err := renderResult(res, defs, !rc.trace)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Fprintf(stderr, "note: %s\n", n)
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "FAIL: %s\n", p)
	}
	env, err := json.Marshal(map[string]any{"env": environment(*name, rc, res.procs)})
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", env, line)
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// renderResult builds the final output line. With strict set every listed
// metric must have been measured (end-to-end metrics are never 0);
// otherwise an unmeasured layer metric reads 0.
func renderResult(res *result, defs []metricDef, strict bool) ([]byte, error) {
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := res.values[d.Name]
		if strict && (!ok || v <= 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, metrics})
}

// environment describes where a run happened, so results from different
// machines are never compared as if they were alike.
func environment(name string, rc runConfig, procs int) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   name,
		"seed":       rc.seed,
		"seconds":    rc.seconds,
		"trace":      rc.trace,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": procs,
		"go_version": runtime.Version(),
		"commit":     commit,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupClock collects a run's set-up times. A run times its set-up before
// every pass rather than in one burst at the start: the machine's speed
// wanders over tenths of a second, and samples spread over the whole run
// give a median that a single slow moment cannot move.
type setupClock struct{ times []float64 }

// measure runs a set-up step reps times and records each time. Each
// repetition starts from a collected heap, so garbage left by the run or
// by the last repetition does not decide whether it pays for a collection.
// The step learns which repetition is the last, so the run can keep what
// that one set up.
func (c *setupClock) measure(reps int, step func(last bool) error) error {
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := now()
		if err := step(i == reps-1); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		c.times = append(c.times, now().Sub(start).Seconds())
	}
	return nil
}

// median is the median set-up time in seconds.
func (c *setupClock) median() float64 { return median(c.times) }

// passes is how many passes of about nominal each fill seconds of
// measurement, and at least one. Counting from a fixed nominal time rather
// than from the clock keeps the work of a run the same however fast the
// machine happens to be.
func passes(seconds float64, nominal time.Duration) int {
	return max(1, int(math.Round(seconds/nominal.Seconds())))
}

// summarize reads the concatenated standard output of several runs and
// prints, per workload and metric, the median, the quartiles and the
// spread (interquartile range over median) of the runs as a Markdown
// table: the figures the regression bounds must stay above.
func summarize(path string, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("summarize: %w", err)
	}
	type key struct{ workload, metric string }
	vals := map[key][]float64{}
	units := map[key]string{}
	workload := ""
	for _, line := range strings.Split(string(data), "\n") {
		var out struct {
			Env *struct {
				Workload string `json:"workload"`
			} `json:"env"`
			Metrics map[string]metricValue `json:"metrics"`
		}
		if json.Unmarshal([]byte(line), &out) != nil {
			continue
		}
		if out.Env != nil {
			workload = out.Env.Workload
		}
		for name, m := range out.Metrics {
			k := key{workload, name}
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	keys := make([]key, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintln(w, "| workload | metric | runs | median | q1 | q3 | spread |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for _, k := range keys {
		v := vals[k]
		if len(v) < 2 {
			continue
		}
		q1, q3 := quartiles(v)
		fmt.Fprintf(w, "| %s | %s (%s) | %d | %.4g | %.4g | %.4g | %.3f |\n",
			k.workload, k.metric, units[k], len(v), median(v), q1, q3, spread(v))
	}
	return nil
}
