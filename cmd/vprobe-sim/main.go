// Command vprobe-sim runs the paper-reproduction experiments and prints
// their tables, or runs one spec: a paper cell or a spec document.
//
// Usage:
//
//	vprobe-sim [-scale f] [-seed n] [-workers n] [-timeout d] [-list] [experiment ...]
//	vprobe-sim [-scale f] [-seed n] [-timeout d] -spec experiment/cell|FILE|-
//	           [-events f] [-spans f] [-chrome f] [-metrics f [-metrics-every d]]
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
// -spec names one simulation: a cell, as "<experiment>/<cell>" (e.g.
// fig5/lu/lb/seed0, built at -scale and -seed; an unknown cell lists the
// experiment's cells), or a spec document, as a file or "-" for stdin. A
// document is the one kind, ScenarioV1 or ClusterV1, it strictly decodes
// (unknown fields rejected, as vprobe-serve does) and validates as. Alone,
// -spec prints the normalized spec, which vprobe-serve accepts as is; with
// an export it runs it through the run-and-export path vprobe-cluster
// uses, prints the report and writes -events FILE (every event as JSON
// Lines, byte-identical to vprobe-serve's /v1/runs/{id}/events; use
// /dev/stderr to watch the run), -spans FILE (span JSONL, the
// vprobe-explain input), -chrome FILE (Chrome trace-event JSON) and
// -metrics FILE (Prometheus text, plus the per-period series as JSON Lines
// in FILE with a .jsonl suffix, sampled every -metrics-every). Each export
// alone implies -spec's run; no two may name one file. A traced scenario
// is a document, e.g. testdata/trace-soplex.json:
//
//	vprobe-sim -spec cmd/vprobe-sim/testdata/trace-soplex.json -events /dev/stderr
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"vprobe/cmd/internal/specrun"
	"vprobe/internal/experiments"
	"vprobe/internal/harness"
	"vprobe/internal/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs the experiments or the
// spec, writes results to stdout and progress and diagnostics to stderr,
// and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vprobe-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", experiments.DefaultScale,
		"workload scale factor (1.0 = paper-sized runs)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "wall-clock limit for the whole run (0 = none)")
	quiet := fs.Bool("q", false, "suppress progress output on stderr")
	list := fs.Bool("list", false, "list experiments and exit")
	out := fs.String("out", "", "directory for CSV/JSON result and JSONL event exports")
	var ex specrun.Exports
	fs.StringVar(&ex.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&ex.MemProfile, "memprofile", "", "write a heap profile (taken after the run) to this file")
	specArg := fs.String("spec", "", "print the normalized spec of one cell, `experiment/cell` (e.g. fig5/lu/lb/seed0), or of a spec document (a file, or - for stdin)")
	fs.StringVar(&ex.Events, "events", "", "run the -spec simulation and write every event as JSON Lines to this file (/dev/stderr to watch the run)")
	fs.StringVar(&ex.Metrics, "metrics", "", "run the -spec simulation and write Prometheus metrics to this file (plus a .jsonl time series next to it)")
	fs.DurationVar(&ex.MetricsEvery, "metrics-every", time.Second, "virtual-time sampling period for -metrics")
	fs.StringVar(&ex.Spans, "spans", "", "run the -spec simulation and write its span flight recorder as JSONL to this file")
	fs.StringVar(&ex.Chrome, "chrome", "", "run the -spec simulation and write its spans as Chrome trace-event JSON to this file")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: vprobe-sim [flags] [experiment ...]\n\nexperiments:\n")
		for _, e := range experiments.All() {
			fmt.Fprintf(stderr, "  %-18s %s\n", e.ID, e.Title)
		}
		fmt.Fprintln(stderr, "\nflags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-18s %s\n    paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runSpec := ex.Events != "" || ex.Metrics != "" || ex.Spans != "" || ex.Chrome != ""
	if *specArg != "" || runSpec {
		if *specArg == "" || fs.NArg() > 0 {
			fmt.Fprintln(stderr, "-events/-metrics/-spans/-chrome run one simulation: name it with -spec experiment/cell|FILE|-, without experiment arguments")
			return 2
		}
		s, err := loadSpec(*specArg, experiments.Options{Seed: *seed, Scale: *scale})
		if err == nil {
			if runSpec {
				if *timeout > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, *timeout)
					defer cancel()
				}
				err = specrun.Run(ctx, s, ex, stdout, stderr)
			} else {
				err = printSpec(stdout, s)
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	var sinks []harness.Sink
	if !*quiet {
		sinks = append(sinks, harness.NewConsole(stderr))
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		f, err := os.Create(filepath.Join(*out, "events.jsonl"))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
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

	stopProfiles, perr := harness.StartProfiles(ex.CPUProfile, ex.MemProfile)
	if perr != nil {
		fmt.Fprintln(stderr, perr)
		return 1
	}

	start := time.Now()
	items, err := experiments.RunSuite(ctx, fs.Args(), opts)
	// Profiles cover the simulation itself, not result formatting.
	if perr := stopProfiles(); perr != nil {
		fmt.Fprintln(stderr, perr)
		return 1
	}
	if err != nil && len(items) == 0 {
		fmt.Fprintln(stderr, err)
		return 1
	}

	failed := false
	for _, item := range items {
		id := item.Experiment.ID
		if item.Err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", id, item.Err)
			failed = true
			continue
		}
		fmt.Fprint(stdout, item.Result.String())
		if *out != "" {
			paths, err := item.Result.Export(*out)
			if err != nil {
				fmt.Fprintf(stderr, "%s: export: %v\n", id, err)
				failed = true
			} else {
				fmt.Fprintf(stdout, "(exported %v)\n", paths)
			}
		}
		fmt.Fprintln(stdout)
		// Timing goes to stderr: stdout stays byte-identical across runs
		// and worker counts.
		if !*quiet {
			fmt.Fprintf(stderr, "(%s ran in %.1fs, simulated %.0fs)\n",
				id, item.Wall.Seconds(), item.SimTime.Seconds())
		}
	}
	if !*quiet {
		fmt.Fprintf(stderr, "total wall time %.1fs\n", time.Since(start).Seconds())
	}
	if failed || err != nil {
		return 1
	}
	return 0
}

// loadSpec resolves -spec: "-" or an existing file is a spec document,
// anything else names a paper cell.
func loadSpec(arg string, opts experiments.Options) (any, error) {
	if _, err := os.Stat(arg); arg == "-" || err == nil {
		return specrun.Load(arg, os.Stdin)
	}
	c, err := experiments.FindCell(arg, opts)
	return c.Spec, err
}

// printSpec prints a spec in normalized form.
func printSpec(w io.Writer, s any) error {
	switch v := s.(type) {
	case spec.ScenarioV1:
		s = v.Normalize()
	case spec.ClusterV1:
		s = v.Normalize()
	}
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
