// Package experiments reproduces every table and figure of the paper's
// evaluation (§II-B Fig. 1, §IV-A Fig. 3, §V Figs. 4–8 and Table III, plus
// Table I's platform description) as runnable experiments, and adds
// ablation experiments for the design choices DESIGN.md calls out.
//
// Each experiment declares the simulations it needs as cells (one
// simulation described by data), and assembles text tables mirroring the
// paper's rows/series plus a machine-readable Series map from their
// measured outputs. RunSuite runs the cells of every selected experiment
// through one queue, so a simulation two experiments share runs once.
// Absolute values are model outputs; the reproduction targets are the
// shapes (orderings, rough factors, crossovers), recorded per experiment
// in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
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
	// Workers bounds the one cell queue a run goes through: at most this
	// many simulations, across every experiment of a RunSuite call, are
	// alive at once. Values <= 0 mean GOMAXPROCS. Worker count never
	// changes results.
	Workers int
	// Timeout caps a RunSuite call's wall-clock time: one deadline at
	// suite start + Timeout for every experiment (0 = no limit).
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
	// plan declares the experiment's work for opts; see plan.
	plan func(opts Options) plan
}

// plan is an experiment's work for one Options value: the cells it needs
// and the step that builds its Result from their outputs, which arrive in
// declaration order whichever cells ran first or were shared.
type plan struct {
	cells    []Cell
	assemble func(outs []any) *Result
}

// RunContext executes the experiment under ctx: cancelling the context (or
// exceeding its deadline) aborts the in-flight simulations promptly and
// returns an error wrapping the context's.
func (e *Experiment) RunContext(ctx context.Context, opts Options) (*Result, error) {
	p := e.plan(opts)
	outs, err := runCells(ctx, opts, p.cells)
	if err != nil {
		return nil, err
	}
	return p.assemble(outs), nil
}

// Cells returns the cells the experiment declares at opts, in declaration
// order.
func (e *Experiment) Cells(opts Options) []Cell { return e.plan(opts).cells }

// FindCell returns the cell path names, "<experiment>/<cell>" such as
// "fig5/lu/lb/seed0", as its experiment declares it at opts.
func FindCell(path string, opts Options) (Cell, error) {
	id, name, _ := strings.Cut(path, "/")
	e, err := ByID(id)
	if err != nil {
		return Cell{}, err
	}
	cells := e.Cells(opts)
	names := make([]string, len(cells))
	for i, c := range cells {
		if c.Name == name {
			return c, nil
		}
		names[i] = c.Name
	}
	return Cell{}, fmt.Errorf("experiments: %s declares no cell %q (have %s)", id, name, strings.Join(names, ", "))
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
