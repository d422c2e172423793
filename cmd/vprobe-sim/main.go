// Command vprobe-sim runs the paper-reproduction experiments and prints
// their tables.
//
// Usage:
//
//	vprobe-sim [-scale f] [-seed n] [-workers n] [-timeout d] [-list] [experiment ...]
//	vprobe-sim [-scale f] [-seed n] -spec experiment/cell [-metrics f] [-spans f] [-chrome f]
//
// Without arguments it runs every registered experiment. Experiment ids
// match the paper's artifacts: table1, fig1, fig3, fig4, fig5, fig6, fig7,
// fig8, table3, plus the ablation experiments.
//
// Every simulation of every selected experiment goes through one queue on
// -workers OS threads, and a simulation two experiments share runs once;
// results are identical at every worker count. -timeout is one deadline
// for the whole run. SIGINT or SIGTERM cancels the run promptly. Progress events stream to stderr,
// and with -out they are also exported as events.jsonl next to the CSV/JSON
// result files.
//
// -spec names one simulation of one experiment, as "<experiment>/<cell>"
// (e.g. fig5/lu/lb/seed0; an unknown cell lists the experiment's cells),
// and prints its normalized spec at -scale and -seed: a ScenarioV1 or
// ClusterV1 document that vprobe-serve accepts as is. With -metrics,
// -spans or -chrome the command runs that cell instead, through
// vprobe.CompileScenario or vprobe.RunCluster, prints its report and
// exports the run: -metrics FILE writes the final state of every series as
// Prometheus text exposition to FILE and the per-period time series as
// JSON Lines next to it (FILE with a .jsonl suffix; -metrics-every sets
// the virtual-time sampling period), -spans FILE the span flight recorder
// as JSONL and -chrome FILE as Chrome trace-event JSON.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"vprobe"
	"vprobe/internal/experiments"
	"vprobe/internal/harness"
	"vprobe/internal/spec"
)

func main() {
	scale := flag.Float64("scale", experiments.DefaultScale,
		"workload scale factor (1.0 = paper-sized runs)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "wall-clock limit for the whole run (0 = none)")
	quiet := flag.Bool("q", false, "suppress progress output on stderr")
	list := flag.Bool("list", false, "list experiments and exit")
	out := flag.String("out", "", "directory for CSV/JSON result and JSONL event exports")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
	cellPath := flag.String("spec", "", "print the normalized spec of one cell, `experiment/cell` (e.g. fig5/lu/lb/seed0)")
	metrics := flag.String("metrics", "", "run the -spec cell and write Prometheus metrics to this file (plus a .jsonl time series next to it)")
	metricsEvery := flag.Duration("metrics-every", time.Second, "virtual-time sampling period for -metrics")
	spansOut := flag.String("spans", "", "run the -spec cell and write its span flight recorder as JSONL to this file")
	chromeOut := flag.String("chrome", "", "run the -spec cell and write its spans as Chrome trace-event JSON to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] [experiment ...]\n\nexperiments:\n", os.Args[0])
		for _, e := range experiments.All() {
			fmt.Fprintf(os.Stderr, "  %-18s %s\n", e.ID, e.Title)
		}
		fmt.Fprintln(os.Stderr, "\nflags:")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-18s %s\n    paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	run := *metrics != "" || *spansOut != "" || *chromeOut != ""
	if *cellPath != "" || run {
		if *cellPath == "" || flag.NArg() > 0 {
			fmt.Fprintln(os.Stderr, "-metrics/-spans/-chrome run one cell: name it with -spec experiment/cell, without experiment arguments")
			os.Exit(2)
		}
		c, err := experiments.FindCell(*cellPath, experiments.Options{Seed: *seed, Scale: *scale})
		if err == nil {
			if run {
				err = runCell(ctx, c.Spec, *metrics, *metricsEvery, *spansOut, *chromeOut)
			} else {
				err = printSpec(c.Spec)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var sinks []harness.Sink
	if !*quiet {
		sinks = append(sinks, harness.NewConsole(os.Stderr))
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f, err := os.Create(filepath.Join(*out, "events.jsonl"))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		sinks = append(sinks, harness.NewJSONL(f))
	}
	opts := experiments.Options{
		Seed:    *seed,
		Scale:   *scale,
		Workers: *workers,
		Timeout: *timeout,
	}
	if len(sinks) > 0 {
		opts.Events = harness.Multi(sinks...)
	}

	stopProfiles, perr := harness.StartProfiles(*cpuprofile, *memprofile)
	if perr != nil {
		fmt.Fprintln(os.Stderr, perr)
		os.Exit(1)
	}

	start := time.Now()
	items, err := experiments.RunSuite(ctx, flag.Args(), opts)
	// Profiles cover the simulation itself, not result formatting.
	if perr := stopProfiles(); perr != nil {
		fmt.Fprintln(os.Stderr, perr)
		os.Exit(1)
	}
	if err != nil && len(items) == 0 {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	failed := false
	for _, item := range items {
		id := item.Experiment.ID
		if item.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, item.Err)
			failed = true
			continue
		}
		fmt.Print(item.Result.String())
		if *out != "" {
			paths, err := item.Result.Export(*out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: export: %v\n", id, err)
				failed = true
			} else {
				fmt.Printf("(exported %v)\n", paths)
			}
		}
		fmt.Println()
		// Timing goes to stderr: stdout stays byte-identical across runs
		// and worker counts.
		if !*quiet {
			fmt.Fprintf(os.Stderr, "(%s ran in %.1fs, simulated %.0fs)\n",
				id, item.Wall.Seconds(), item.SimTime.Seconds())
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "total wall time %.1fs\n", time.Since(start).Seconds())
	}
	if failed || err != nil {
		os.Exit(1)
	}
}

// printSpec prints a cell's spec in normalized form.
func printSpec(cell any) error {
	switch s := cell.(type) {
	case spec.ScenarioV1:
		cell = s.Normalize()
	case spec.ClusterV1:
		cell = s.Normalize()
	}
	out, err := json.MarshalIndent(cell, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", out)
	return err
}

// runCell runs a cell's spec through the public API and prints its
// report. With promPath the final series go there and the per-period time
// series next to it as JSON Lines; with spansPath/chromePath the span
// flight recorder is exported as JSONL / Chrome trace-event JSON.
func runCell(ctx context.Context, cell any, promPath string, every time.Duration, spansPath, chromePath string) error {
	var opts vprobe.CompileOptions
	if promPath != "" {
		opts.Telemetry = vprobe.NewTelemetry(vprobe.TelemetryOptions{Every: every})
	}
	if spansPath != "" || chromePath != "" {
		opts.Spans = vprobe.NewTracing(vprobe.TracingOptions{})
	}
	var report fmt.Stringer
	switch s := cell.(type) {
	case spec.ScenarioV1:
		sim, horizon, err := vprobe.CompileScenario(s, opts)
		if err != nil {
			return err
		}
		if report, err = sim.RunContext(ctx, horizon); err != nil {
			return err
		}
	case spec.ClusterV1:
		rep, err := vprobe.RunCluster(ctx, s, opts)
		if err != nil {
			return err
		}
		report = rep
	}
	fmt.Print(report)
	if tele := opts.Telemetry; tele != nil {
		if err := writeMetrics(tele, promPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "(%d samples -> %s, %s)\n",
			tele.Samples(), promPath, jsonlPath(promPath))
	}
	if tracing := opts.Spans; tracing != nil {
		if err := writeSpanExports(tracing, spansPath, chromePath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "(%d spans recorded, %d dropped)\n",
			tracing.Spans(), tracing.Dropped())
	}
	return nil
}

// writeSpanExports writes the flight recorder to the requested files.
func writeSpanExports(tracing *vprobe.Tracing, spansPath, chromePath string) error {
	write := func(path string, export func(*os.File) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := export(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(spansPath, func(f *os.File) error { return tracing.WriteSpans(f) }); err != nil {
		return err
	}
	return write(chromePath, func(f *os.File) error { return tracing.WriteChromeTrace(f) })
}

// jsonlPath places the time-series export next to the Prometheus file.
func jsonlPath(promPath string) string {
	return strings.TrimSuffix(promPath, ".prom") + ".jsonl"
}

// writeMetrics exports a collector: final state as Prometheus text to
// promPath, time series as JSON Lines next to it.
func writeMetrics(tele *vprobe.Telemetry, promPath string) error {
	pf, err := os.Create(promPath)
	if err != nil {
		return err
	}
	if err := tele.WritePrometheus(pf); err != nil {
		pf.Close()
		return err
	}
	if err := pf.Close(); err != nil {
		return err
	}
	jf, err := os.Create(jsonlPath(promPath))
	if err != nil {
		return err
	}
	if err := tele.WriteJSONL(jf); err != nil {
		jf.Close()
		return err
	}
	return jf.Close()
}
