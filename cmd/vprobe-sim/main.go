// Command vprobe-sim runs the paper-reproduction experiments and prints
// their tables, or runs one spec: a paper cell or a spec document.
//
// Usage:
//
//	vprobe-sim [-scale f] [-seed n] [-workers n] [-timeout d] [-list] [experiment ...]
//	vprobe-sim [-scale f] [-seed n] [-timeout d] -spec experiment/cell|FILE|-
//	           [-events f] [-spans f] [-chrome f] [-metrics f [-metrics-every d]]
//	vprobe-sim [-scale f] [-seed n] [-workers n] [-timeout d] [-q] -spec experiment/cell|FILE|-
//	           -compare sched,sched,... [-seeds n]
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
// (unknown fields rejected, as vprobe-serve does) and validates as; it
// carries its own seed and scale, so -seed and -scale are refused with
// it. Alone, -spec prints the normalized spec, which vprobe-serve accepts
// as is; with an export it runs it through the run-and-export path
// vprobe-cluster uses, prints the report and writes -events FILE (every
// event as JSON Lines, byte-identical to vprobe-serve's
// /v1/runs/{id}/events; use /dev/stderr to watch the run), -spans FILE
// (span JSONL, the vprobe-explain input), -chrome FILE (Chrome trace-event
// JSON) and -metrics FILE (Prometheus text, plus the per-period series as
// JSON Lines in FILE with a .jsonl suffix, sampled every -metrics-every).
// Each export alone implies -spec's run; no two may name one file. A
// traced scenario is a document, e.g. testdata/trace-soplex.json:
//
//	vprobe-sim -spec cmd/vprobe-sim/testdata/trace-soplex.json -events /dev/stderr
//
// -compare runs -spec's scenario under each named scheduler at -seeds
// seeds from the scenario's own (for a cell, -seed plus its repeat), and
// prints the means and each scheduler's per-seed differences from the
// first: in execution time, or in requests per second when a watched app
// is an open-ended server. The output is identical at every -workers:
//
//	vprobe-sim -spec fig7/redis-2000/lb/seed0 -scale 1 -compare lb,vprobe -seeds 10
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"vprobe/cmd/internal/specrun"
	"vprobe/internal/experiments"
	"vprobe/internal/harness"
	"vprobe/internal/metrics"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
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
	compare := fs.String("compare", "", "run the -spec scenario under each of these comma-separated `schedulers` and print their paired per-seed differences from the first")
	seeds := fs.Int("seeds", 3, "seeds -compare runs each scheduler at, from the scenario's own seed")
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

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	runSpec := ex.Events != "" || ex.Metrics != "" || ex.Spans != "" || ex.Chrome != ""
	if *specArg != "" || runSpec || set["compare"] || set["seeds"] {
		if *specArg == "" || fs.NArg() > 0 {
			fmt.Fprintln(stderr, "-events/-metrics/-spans/-chrome/-compare run -spec's simulation: name it with -spec experiment/cell|FILE|-, without experiment arguments")
			return 2
		}
		var kinds []sched.Kind
		if set["compare"] || set["seeds"] {
			var err error
			if kinds, err = compareKinds(*compare, set["compare"], *seeds, runSpec); err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
		}
		_, statErr := os.Stat(*specArg)
		document := *specArg == "-" || statErr == nil
		if document && (set["seed"] || set["scale"]) {
			fmt.Fprintln(stderr, "-seed and -scale build cells: set the document's \"seed\" and \"scale\" fields instead")
			return 2
		}
		s, err := loadSpec(*specArg, document, experiments.Options{Seed: *seed, Scale: *scale})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		base, scenario := s.(spec.ScenarioV1)
		if kinds != nil && !scenario {
			fmt.Fprintf(stderr, "-compare runs scenario specs: %s is a cluster spec\n", *specArg)
			return 2
		}
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		switch {
		case kinds != nil:
			err = compareSpec(ctx, stdout, stderr, base, kinds, *seeds, *workers, *quiet)
		case runSpec:
			err = specrun.Run(ctx, s, ex, stdout, stderr)
		default:
			err = printSpec(stdout, s)
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

// loadSpec resolves -spec: a document ("-" or an existing file) is read
// as is, anything else names a paper cell built at opts.
func loadSpec(arg string, document bool, opts experiments.Options) (any, error) {
	if document {
		return specrun.Load(arg, os.Stdin)
	}
	c, err := experiments.FindCell(arg, opts)
	return c.Spec, err
}

// compareKinds parses -compare's scheduler list, checking it and -seeds
// before anything runs; given is whether -compare was set at all.
func compareKinds(list string, given bool, seeds int, export bool) ([]sched.Kind, error) {
	switch {
	case !given:
		return nil, errors.New("-seeds needs -compare sched,sched,...")
	case export:
		return nil, errors.New("-compare prints its tables: it takes no -events/-metrics/-spans/-chrome")
	case seeds < 1:
		return nil, fmt.Errorf("-seeds %d: need at least 1", seeds)
	}
	known := spec.Schedulers()
	var kinds []sched.Kind
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(known, name) {
			return nil, fmt.Errorf("-compare %q: unknown or empty scheduler name %q (have %s)", list, name, strings.Join(known, ", "))
		}
		kinds = append(kinds, sched.Kind(name))
	}
	return kinds, nil
}

// compareSpec runs base under each of kinds at seeds seeds from its own,
// then prints each scheduler's means and, for each scheduler after the
// first, its paired per-seed differences from the first. The timing line
// goes to stderr unless quiet, so stdout is identical at every worker
// count.
func compareSpec(ctx context.Context, stdout, stderr io.Writer, base spec.ScenarioV1, kinds []sched.Kind, seeds, workers int, quiet bool) error {
	start := time.Now()
	byKind, err := experiments.RunPaired(ctx, base, experiments.Options{Schedulers: kinds, Repeats: seeds, Workers: workers})
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(stderr, "(%d simulations ran in %.1fs)\n", len(kinds)*seeds, time.Since(start).Seconds())
	}
	m := experiments.MeasureOf(base)
	format, better := "%.2f", "lower"
	if m.Higher {
		format, better = "%.0f", "higher"
	}
	n := base.Normalize()
	t := metrics.NewTable(fmt.Sprintf("means over seeds %d-%d (scale %g, horizon %s)", n.Seed, n.Seed+uint64(seeds)-1, n.Scale, n.Horizon),
		"scheduler", m.Name, "remote", "page-remote", "moves/app", "overhead")
	for _, k := range kinds {
		var values, remotes, pages, moves, overheads []float64
		for _, r := range byKind[k] {
			values = append(values, m.Of(r))
			remotes = append(remotes, metrics.AvgRemoteRatio(r.Runs))
			pages = append(pages, metrics.AvgPageRemoteRatio(r.Runs))
			var appMoves []float64
			for _, a := range r.Runs {
				appMoves = append(appMoves, float64(a.NodeMoves))
			}
			moves = append(moves, sim.Mean(appMoves))
			overheads = append(overheads, r.Overhead)
		}
		t.AddRow(string(k),
			fmt.Sprintf(format, sim.Mean(values)),
			metrics.Pct(sim.Mean(remotes)),
			metrics.Pct(sim.Mean(pages)),
			fmt.Sprintf("%.1f", sim.Mean(moves)),
			fmt.Sprintf("%.5f%%", 100*sim.Mean(overheads)))
	}
	out := t.String()
	if len(kinds) > 1 {
		pct := func(d float64) string {
			if math.IsNaN(d) {
				return "n/a"
			}
			return fmt.Sprintf("%+.1f%%", 100*d)
		}
		t := metrics.NewTable(fmt.Sprintf("paired against %s: %s per seed (%s is better)", kinds[0], m.Name, better),
			"scheduler", "better", "tied", "min", "max", "per-seed diff")
		for _, k := range kinds[1:] {
			p := experiments.Pair(m, byKind[kinds[0]], byKind[k])
			diffs := make([]string, len(p.Diffs))
			for i, d := range p.Diffs {
				diffs[i] = pct(d)
			}
			// A seed with a zero baseline prints n/a, outside min, max and count.
			known, lo, hi := slices.DeleteFunc(slices.Clone(p.Diffs), math.IsNaN), math.NaN(), math.NaN()
			if len(known) > 0 {
				lo, hi = slices.Min(known), slices.Max(known)
			}
			t.AddRow(string(k), fmt.Sprintf("%d of %d", p.Better, len(known)), fmt.Sprint(p.Ties),
				pct(lo), pct(hi), strings.Join(diffs, " "))
		}
		out += "\n" + t.String()
	}
	_, err = io.WriteString(stdout, out)
	return err
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
