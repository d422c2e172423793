// Command vprobe-trace runs a small scenario with scheduling trace output,
// showing quantum dispatches, blocks/wakes, migrations, guest thread
// parking, and app completions.
//
// Usage:
//
//	vprobe-trace [-sched vprobe] [-seconds 3] [-apps soplex,libquantum]
//	             [-json] [-spans file.jsonl] [-chrome file.json]
//
// With -json each event is emitted as one JSON object per line on stdout
// (machine-readable stream); the report moves to stderr so stdout stays
// pure JSONL. An empty -apps list still emits a valid (possibly empty)
// JSONL stream — zero events is a well-formed document, not an error.
//
// -spans records the run's span flight recorder (domain lifecycle spans
// over virtual time) as JSONL — the input format of vprobe-explain —
// and -chrome exports the same spans as Chrome trace-event JSON loadable
// in Perfetto or chrome://tracing.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"vprobe"
)

// jsonSink streams events as JSON Lines, one vprobe.Event.AppendJSON
// record per line. w is the run's bufio.Writer, which keeps the first
// write error for the caller's Flush.
func jsonSink(w io.Writer) vprobe.EventSink {
	var line []byte
	return vprobe.EventFunc(func(ev vprobe.Event) {
		line = append(ev.AppendJSON(line[:0]), '\n')
		w.Write(line)
	})
}

// options carries the parsed flags, so run is testable end to end.
type options struct {
	sched   string
	seconds float64
	apps    string
	seed    uint64
	asJSON  bool
	spans   io.Writer // span JSONL destination (nil = off)
	chrome  io.Writer // Chrome trace destination (nil = off)
}

// run executes the traced scenario, writing the event stream and report to
// stdout/stderr per the -json contract and the span exports to the
// configured writers.
func run(opts options, stdout, stderr io.Writer) error {
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	var sink vprobe.EventSink
	if opts.asJSON {
		sink = jsonSink(out)
	} else {
		sink = vprobe.EventFunc(func(ev vprobe.Event) {
			fmt.Fprintf(out, "%12.6f  %-14s %s\n", ev.At.Seconds(), ev.Kind, ev.Detail)
		})
	}
	horizon := time.Duration(opts.seconds * float64(time.Second))
	if horizon <= 0 {
		// A spec's zero horizon means its 30 s default; a trace asks for
		// exactly what -seconds says, so reject it here.
		return fmt.Errorf("vprobe: non-positive horizon %v", horizon)
	}
	var tracing *vprobe.Tracing
	if opts.spans != nil || opts.chrome != nil {
		tracing = vprobe.NewTracing(vprobe.TracingOptions{})
	}

	// Blanks and stray commas are skipped, so -apps "" means "no apps": an
	// empty run — nothing runnable, no burner — whose event stream is a
	// valid, empty JSONL document rather than an error.
	traced := vprobe.VMSpec{Name: "traced", MemoryMB: 8 * 1024, VCPUs: 8, Memory: "stripe"}
	for _, app := range strings.Split(opts.apps, ",") {
		if app = strings.TrimSpace(app); app != "" {
			traced.Apps = append(traced.Apps, vprobe.AppSpec{Name: app})
		}
	}
	scenario := vprobe.ScenarioSpec{
		Scheduler: opts.sched,
		Seed:      opts.seed,
		Horizon:   vprobe.SpecDuration(horizon),
		VMs:       []vprobe.VMSpec{traced},
	}
	if len(traced.Apps) > 0 {
		scenario.VMs[0].FillGuestIdle = true
		burner := vprobe.VMSpec{Name: "burner", MemoryMB: 1024, VCPUs: 8}
		for i := 0; i < 8; i++ {
			burner.Apps = append(burner.Apps, vprobe.AppSpec{Name: "hungry"})
		}
		scenario.VMs = append(scenario.VMs, burner)
	}
	sim, _, err := vprobe.CompileScenario(scenario, vprobe.CompileOptions{Events: sink, Spans: tracing})
	if err != nil {
		return err
	}
	report, err := sim.RunContext(context.Background(), horizon)
	if err != nil {
		return err
	}
	if tracing != nil {
		if opts.spans != nil {
			if err := tracing.WriteSpans(opts.spans); err != nil {
				return fmt.Errorf("span export: %w", err)
			}
		}
		if opts.chrome != nil {
			if err := tracing.WriteChromeTrace(opts.chrome); err != nil {
				return fmt.Errorf("chrome export: %w", err)
			}
		}
	}
	if opts.asJSON {
		out.Flush()
		fmt.Fprint(stderr, report)
		return nil
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, report)
	return nil
}

func main() {
	schedName := flag.String("sched", "vprobe", "scheduler: credit|vprobe|vcpu-p|lb|brm")
	seconds := flag.Float64("seconds", 2, "virtual seconds to trace")
	apps := flag.String("apps", "soplex,libquantum", "comma-separated catalog apps for the traced VM (empty = none)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	asJSON := flag.Bool("json", false, "emit one JSON object per event (report goes to stderr)")
	spansPath := flag.String("spans", "", "write the span flight recorder as JSONL to this file")
	chromePath := flag.String("chrome", "", "write the spans as Chrome trace-event JSON to this file")
	flag.Parse()

	opts := options{
		sched:   *schedName,
		seconds: *seconds,
		apps:    *apps,
		seed:    *seed,
		asJSON:  *asJSON,
	}
	var closers []*os.File
	open := func(path string) io.Writer {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		closers = append(closers, f)
		return f
	}
	if *spansPath != "" {
		opts.spans = open(*spansPath)
	}
	if *chromePath != "" {
		opts.chrome = open(*chromePath)
	}
	err := run(opts, os.Stdout, os.Stderr)
	for _, f := range closers {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
