// Command vprobe-sim runs the paper-reproduction experiments and prints
// their tables.
//
// Usage:
//
//	vprobe-sim [-scale f] [-seed n] [-workers n] [-timeout d] [-list] [experiment ...]
//	vprobe-sim [-scale f] [-seed n] -spec experiment/cell|FILE|- [-metrics f] [-spans f] [-chrome f]
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
// -metrics, -spans or -chrome it runs it through the run-and-export path
// vprobe-cluster uses, prints the report and writes -metrics FILE
// (Prometheus text, plus the per-period series as JSON Lines in FILE with
// a .jsonl suffix, sampled every -metrics-every), -spans FILE (span JSONL)
// and -chrome FILE (Chrome trace-event JSON).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
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
	scale := flag.Float64("scale", experiments.DefaultScale,
		"workload scale factor (1.0 = paper-sized runs)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "wall-clock limit for the whole run (0 = none)")
	quiet := flag.Bool("q", false, "suppress progress output on stderr")
	list := flag.Bool("list", false, "list experiments and exit")
	out := flag.String("out", "", "directory for CSV/JSON result and JSONL event exports")
	var ex specrun.Exports
	flag.StringVar(&ex.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&ex.MemProfile, "memprofile", "", "write a heap profile (taken after the run) to this file")
	specArg := flag.String("spec", "", "print the normalized spec of one cell, `experiment/cell` (e.g. fig5/lu/lb/seed0), or of a spec document (a file, or - for stdin)")
	flag.StringVar(&ex.Metrics, "metrics", "", "run the -spec simulation and write Prometheus metrics to this file (plus a .jsonl time series next to it)")
	flag.DurationVar(&ex.MetricsEvery, "metrics-every", time.Second, "virtual-time sampling period for -metrics")
	flag.StringVar(&ex.Spans, "spans", "", "run the -spec simulation and write its span flight recorder as JSONL to this file")
	flag.StringVar(&ex.Chrome, "chrome", "", "run the -spec simulation and write its spans as Chrome trace-event JSON to this file")
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

	run := ex.Metrics != "" || ex.Spans != "" || ex.Chrome != ""
	if *specArg != "" || run {
		if *specArg == "" || flag.NArg() > 0 {
			fmt.Fprintln(os.Stderr, "-metrics/-spans/-chrome run one simulation: name it with -spec experiment/cell|FILE|-, without experiment arguments")
			os.Exit(2)
		}
		s, err := loadSpec(*specArg, experiments.Options{Seed: *seed, Scale: *scale})
		if err == nil {
			if run {
				err = specrun.Run(ctx, s, ex, os.Stdout, os.Stderr)
			} else {
				err = printSpec(s)
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

	stopProfiles, perr := harness.StartProfiles(ex.CPUProfile, ex.MemProfile)
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
func printSpec(s any) error {
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
	_, err = fmt.Printf("%s\n", out)
	return err
}
