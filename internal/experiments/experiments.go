// Package experiments reproduces every table and figure of the paper's
// evaluation (§II-B Fig. 1, §IV-A Fig. 3, §V Figs. 4–8 and Table III, plus
// Table I's platform description) as runnable experiments, and adds
// ablation experiments for the design choices DESIGN.md calls out.
//
// Each experiment builds fresh simulations, runs them, and produces text
// tables mirroring the paper's rows/series plus a machine-readable Series
// map for tests and benchmarks. Absolute values are model outputs; the
// reproduction targets are the shapes (orderings, rough factors,
// crossovers), recorded per experiment in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"vprobe/internal/harness"
	"vprobe/internal/metrics"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
)

// Options control experiment execution.
type Options struct {
	// Seed drives every stochastic element; experiments are
	// deterministic given (Seed, Scale) — every per-scenario seed is
	// derived from this root, never from execution order, so results are
	// identical at any worker count.
	Seed uint64
	// Scale multiplies workload lengths; 1.0 is the full paper-sized
	// runs, smaller values shorten benches and tests. Values <= 0 are
	// replaced by DefaultScale.
	Scale float64
	// Horizon caps each simulation's virtual time.
	Horizon sim.Duration
	// Schedulers selects the policies to compare; nil means the paper's
	// five (Credit, vProbe, VCPU-P, LB, BRM).
	Schedulers []sched.Kind
	// Repeats averages each measurement over this many seeds (initial
	// placement is randomized, so single runs carry placement luck).
	Repeats int
	// Workers bounds the harness fan-out: the parallel scenario runs
	// inside an experiment and the parallel experiments inside RunSuite.
	// Values <= 0 mean GOMAXPROCS. Worker count never changes results.
	Workers int
	// Timeout caps each experiment's wall-clock time in RunSuite
	// (0 = no limit).
	Timeout time.Duration
	// Events, when non-nil, receives harness progress events (scenario
	// and experiment completions). The sink must be safe for concurrent
	// use; results never flow through it.
	Events harness.Sink
}

// emitScenario reports one finished simulation to the progress sink.
func (o Options) emitScenario(name string, end sim.Time) {
	if o.Events != nil {
		o.Events.Emit(harness.Event{
			Kind:      harness.EventScenarioFinished,
			Scenario:  name,
			SimMicros: int64(end),
		})
	}
}

// DefaultScale keeps full experiment suites in the tens of virtual seconds
// per simulation.
const DefaultScale = 0.35

// normalized fills in defaults.
func (o Options) normalized() Options {
	if o.Scale <= 0 {
		o.Scale = DefaultScale
	}
	if o.Horizon <= 0 {
		o.Horizon = 1200 * sim.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Schedulers) == 0 {
		o.Schedulers = sched.PaperOrder()
	}
	if o.Repeats <= 0 {
		o.Repeats = 3
	}
	return o
}

// Result is an experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	// Series holds machine-readable values keyed "metric/scheduler"
	// then by row label, e.g. Series["exec/vprobe"]["soplex"].
	Series map[string]map[string]float64
}

// Set records one series point.
func (r *Result) Set(series, label string, v float64) {
	if r.Series == nil {
		r.Series = make(map[string]map[string]float64)
	}
	if r.Series[series] == nil {
		r.Series[series] = make(map[string]float64)
	}
	r.Series[series][label] = v
}

// Get reads one series point (0 when absent).
func (r *Result) Get(series, label string) float64 {
	return r.Series[series][label]
}

// String renders all tables.
func (r *Result) String() string {
	s := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		s += "\n" + t.String()
	}
	return s
}

// Experiment is a runnable reproduction of one paper artifact.
type Experiment struct {
	ID    string
	Title string
	// Paper describes what the original artifact showed.
	Paper string
	// run executes the experiment; see RunContext.
	run func(context.Context, Options) (*Result, error)
}

// RunContext executes the experiment under ctx: cancelling the context (or
// exceeding its deadline) aborts the in-flight simulations promptly and
// returns an error wrapping the context's.
func (e *Experiment) RunContext(ctx context.Context, opts Options) (*Result, error) {
	return e.run(ctx, opts)
}

var registry = map[string]*Experiment{}

func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// ByID returns the experiment with the given id.
func ByID(id string) (*Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return e, nil
}

// IDs lists registered experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// All returns the experiments in id order.
func All() []*Experiment {
	var out []*Experiment
	for _, id := range IDs() {
		out = append(out, registry[id])
	}
	return out
}

// schedLabel is the row/column label for a policy kind.
func schedLabel(k sched.Kind) string { return string(k) }
