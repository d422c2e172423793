// Package specrun is the run-and-export path of the commands that run a
// spec: vprobe-sim -spec runs a paper cell or a spec document through it,
// and vprobe-cluster the cluster spec its flags build. Run compiles the
// spec through the public API (vprobe.CompileScenario or
// vprobe.RunCluster), prints the report and writes the exports; Load
// reads a spec document of either kind.
package specrun

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"vprobe"
	"vprobe/internal/harness"
)

// Exports names what a run writes besides its report; empty fields write
// nothing.
type Exports struct {
	// Metrics receives every series' final state as Prometheus text, and
	// Metrics with a .jsonl suffix the series sampled every MetricsEvery
	// of virtual time, as JSON Lines.
	Metrics      string
	MetricsEvery time.Duration
	// Spans and Chrome receive the span flight recorder as JSONL (the
	// vprobe-explain input) and as Chrome trace-event JSON.
	Spans, Chrome string
	// Arrivals receives a cluster run's arrivals as a replayable JSONL
	// trace (spec.ReadArrivalTrace reads it back).
	Arrivals string
	// Events receives one line per event as the run emits it.
	Events io.Writer
	// CPUProfile and MemProfile receive profiles of the run itself.
	CPUProfile, MemProfile string
}

// Run runs s — a vprobe.ScenarioSpec or a vprobe.ClusterSpec — prints its
// report to stdout and writes ex. Status lines go to stderr, so stdout
// stays byte-identical across runs.
func Run(ctx context.Context, s any, ex Exports, stdout, stderr io.Writer) error {
	var opts vprobe.CompileOptions
	series := strings.TrimSuffix(ex.Metrics, ".prom") + ".jsonl"
	if ex.Metrics != "" {
		// The series file's name is derived, so a clash is easy to miss.
		if series == ex.Spans || series == ex.Chrome || series == ex.Arrivals {
			return fmt.Errorf("the -metrics time series %s would overwrite another export", series)
		}
		opts.Telemetry = vprobe.NewTelemetry(vprobe.TelemetryOptions{Every: ex.MetricsEvery})
	}
	if ex.Spans != "" || ex.Chrome != "" {
		opts.Spans = vprobe.NewTracing(vprobe.TracingOptions{})
	}
	if w := ex.Events; w != nil {
		opts.Events = vprobe.EventFunc(func(ev vprobe.Event) {
			fmt.Fprintf(w, "%12v %-14s %-7s %-8s %s\n", ev.At, ev.Kind, ev.Host, ev.VM, ev.Detail)
		})
	}
	closeArrivals := func() error { return nil }
	if ex.Arrivals != "" {
		f, err := os.Create(ex.Arrivals)
		if err != nil {
			return err
		}
		defer f.Close() // for the error paths
		w := bufio.NewWriter(f)
		opts.Arrivals = w
		closeArrivals = func() error { return errors.Join(w.Flush(), f.Close()) }
	}

	stopProfiles, err := harness.StartProfiles(ex.CPUProfile, ex.MemProfile)
	if err != nil {
		return err
	}
	start := time.Now()
	report, simulated, err := run(ctx, s, opts)
	// Profiles cover the simulation itself, not report formatting.
	if err = errors.Join(err, stopProfiles()); err != nil {
		return err
	}
	fmt.Fprint(stdout, report)
	if err := closeArrivals(); err != nil {
		return err
	}
	if tracing := opts.Spans; tracing != nil {
		if err := errors.Join(writeFile(ex.Spans, tracing.WriteSpans),
			writeFile(ex.Chrome, tracing.WriteChromeTrace)); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "(%d spans recorded, %d dropped)\n", tracing.Spans(), tracing.Dropped())
	}
	if tele := opts.Telemetry; tele != nil {
		if err := errors.Join(writeFile(ex.Metrics, tele.WritePrometheus),
			writeFile(series, tele.WriteJSONL)); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "(%d samples -> %s, %s)\n", tele.Samples(), ex.Metrics, series)
	}
	fmt.Fprintf(stderr, "(simulated %v in %.1fs wall)\n", simulated, time.Since(start).Seconds())
	return nil
}

// run compiles and runs one spec, returning its report and the virtual
// time it ran to.
func run(ctx context.Context, s any, opts vprobe.CompileOptions) (fmt.Stringer, time.Duration, error) {
	switch s := s.(type) {
	case vprobe.ScenarioSpec:
		sim, horizon, err := vprobe.CompileScenario(s, opts)
		if err != nil {
			return nil, 0, err
		}
		rep, err := sim.RunContext(ctx, horizon)
		if err != nil {
			return nil, 0, err
		}
		return rep, rep.End, nil
	case vprobe.ClusterSpec:
		rep, err := vprobe.RunCluster(ctx, s, opts)
		if err != nil {
			return nil, 0, err
		}
		return rep, rep.Horizon, nil
	}
	return nil, 0, fmt.Errorf("specrun: %T is not a spec", s)
}

// writeFile creates path and fills it with export; an empty path writes
// nothing.
func writeFile(path string, export func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(export(f), f.Close())
}

// Load reads a spec document from path ("-" reads stdin) as the one kind
// it strictly decodes (unknown fields rejected, as vprobe-serve does) and
// validates as: a vprobe.ScenarioSpec or a vprobe.ClusterSpec. A document
// of both kinds or of neither is an error naming both.
func Load(path string, stdin io.Reader) (any, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	scenario, scenarioErr := decode[vprobe.ScenarioSpec](data)
	cluster, clusterErr := decode[vprobe.ClusterSpec](data)
	switch {
	case scenarioErr == nil && clusterErr == nil:
		return nil, fmt.Errorf("%s: valid as both a scenario spec and a cluster spec", path)
	case scenarioErr == nil:
		return scenario, nil
	case clusterErr == nil:
		return cluster, nil
	}
	return nil, fmt.Errorf("%s: neither a scenario spec (%w) nor a cluster spec (%w)",
		path, scenarioErr, clusterErr)
}

// decode strictly decodes one JSON document as T and validates it.
func decode[T interface{ Validate() error }](data []byte) (T, error) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return v, err
	}
	if dec.More() {
		return v, errors.New("trailing data after the document")
	}
	return v, v.Validate()
}
