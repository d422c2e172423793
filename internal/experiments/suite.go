package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"vprobe/internal/harness"
	"vprobe/internal/sim"
)

// SuiteItem is one experiment's outcome inside a RunSuite call.
type SuiteItem struct {
	Experiment *Experiment
	// Result is nil when the experiment failed or was cancelled.
	Result *Result
	Err    error
	// Wall is the wall-clock time from the start of the experiment's first
	// cell to the end of its last (zero when none of its cells started
	// because the suite was already cancelled). Cells run interleaved with
	// other experiments' and may be shared with them.
	Wall time.Duration
	// SimTime totals the virtual time of every simulation the experiment
	// used, shared ones included.
	SimTime sim.Duration
}

// RunSuite runs the named experiments (all registered ones when ids is
// empty) and returns one SuiteItem per experiment, in request order.
//
// Every experiment's cells go into one queue. Cells with equal keys (one
// simulation several experiments declare, such as fig4's mix runs and the
// ablations' Credit and vProbe rows) run once, and the distinct cells run
// through one harness.Map on opts.Workers, longest expected first. Each
// experiment assembles its Result when its last cell has run.
//
// Unlike Experiment.RunContext, a failing cell does not abort the others:
// the failure lands in the SuiteItem.Err of each experiment that declared
// it and the rest keep running. Cancelling ctx stops everything promptly;
// experiments none of whose cells started carry the context's error.
// opts.Timeout, when set, is one deadline for the whole suite at suite
// start + Timeout; an experiment that finished by then keeps its result.
//
// Results are deterministic in (opts.Seed, opts.Scale): worker count,
// queue order and sharing never influence them, only how fast they
// arrive. Progress events flow to opts.Events tagged with the experiment
// id; a shared cell's scenario-finished event is tagged with the first
// experiment in request order that declared it.
func RunSuite(ctx context.Context, ids []string, opts Options) ([]SuiteItem, error) {
	if len(ids) == 0 {
		ids = IDs()
	}
	s := &suite{opts: opts}
	// Cells are declared in request order, so a shared cell's first
	// declaration belongs to the first experiment that asked for it.
	var cells []Cell
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			return nil, err
		}
		p := e.plan(opts)
		x := &suiteExp{item: SuiteItem{Experiment: e}, plan: p, first: len(cells), left: len(p.cells)}
		for range p.cells {
			s.owner = append(s.owner, x)
		}
		s.exps = append(s.exps, x)
		cells = append(cells, p.cells...)
	}
	s.q = newQueue(cells)
	s.outs = make([]any, len(s.q.distinct))
	s.errs = make([]error, len(s.q.distinct))
	s.users = make([][]int, len(s.q.distinct))
	for i, d := range s.q.at {
		s.users[d] = append(s.users[d], i)
	}

	workers := harness.Workers(opts.Workers, len(s.q.distinct))
	suiteWatch := harness.StartStopwatch()
	s.emit(harness.Event{Kind: harness.EventSuiteStarted, Jobs: len(s.exps), Workers: workers})

	runCtx := ctx
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	for _, x := range s.exps {
		if x.left == 0 && ctx.Err() == nil {
			s.mu.Lock()
			s.start(x)
			s.mu.Unlock()
			s.finish(x)
		}
	}
	// Failures are recorded per cell and never returned, so one broken
	// cell cannot cancel the others through Map's first-error propagation.
	err := s.q.run(ctx, opts.Workers, func(_ context.Context, d int) error {
		s.startCell(d)
		var out any
		var end sim.Time
		err := runCtx.Err()
		if err == nil {
			out, end, err = s.q.distinct[d].run(runCtx)
		}
		s.finishCell(d, out, end, err)
		return nil
	})

	// Cancellation leaves experiments whose cells did not all run.
	items := make([]SuiteItem, len(s.exps))
	for i, x := range s.exps {
		if !x.done {
			s.abandon(x, ctx.Err())
		}
		items[i] = x.item
	}
	s.emit(harness.Event{Kind: harness.EventSuiteFinished,
		Jobs: len(s.exps), Workers: workers, Wall: suiteWatch.Elapsed()})
	return items, err
}

// suite is one RunSuite call's bookkeeping. Workers report cells
// concurrently; mu guards everything below it, and progress events are
// emitted while holding it, so each experiment's started, scenario and
// finished events reach the sink in order.
type suite struct {
	opts Options
	q    *queue
	exps []*suiteExp

	mu sync.Mutex
	// owner maps each declared cell to its experiment; users maps each
	// distinct cell to its declarations.
	owner []*suiteExp
	users [][]int
	// outs and errs hold each distinct cell's outcome once it has run.
	outs []any
	errs []error
}

// suiteExp tracks one experiment through the queue.
type suiteExp struct {
	item SuiteItem
	plan plan
	// first is the index of the experiment's first declared cell; left
	// counts its cells not yet run.
	first, left int
	started     bool
	watch       harness.Stopwatch
	simMicros   int64
	done        bool
}

func (s *suite) emit(ev harness.Event) {
	if s.opts.Events != nil {
		s.opts.Events.Emit(ev)
	}
}

// start marks x started at its first cell. s.mu must be held.
func (s *suite) start(x *suiteExp) {
	if x.started {
		return
	}
	x.started = true
	x.watch = harness.StartStopwatch()
	s.emit(harness.Event{Kind: harness.EventExperimentStarted, Experiment: x.item.Experiment.ID})
}

// startCell starts every experiment that declared distinct cell d.
func (s *suite) startCell(d int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, i := range s.users[d] {
		s.start(s.owner[i])
	}
}

// finishCell records distinct cell d's outcome, reports a completed
// simulation, and finishes every experiment it was the last cell of.
func (s *suite) finishCell(d int, out any, end sim.Time, err error) {
	c := s.q.distinct[d]
	var ready []*suiteExp
	s.mu.Lock()
	if err != nil {
		err = fmt.Errorf("%s: %w", c.Name, err)
	} else {
		s.emit(harness.Event{
			Kind:       harness.EventScenarioFinished,
			Experiment: s.owner[s.users[d][0]].item.Experiment.ID,
			Scenario:   c.Name,
			SimMicros:  int64(end),
		})
	}
	s.outs[d], s.errs[d] = out, err
	for _, i := range s.users[d] {
		x := s.owner[i]
		if err == nil {
			x.simMicros += int64(end)
		}
		if x.left--; x.left == 0 {
			ready = append(ready, x)
		}
	}
	s.mu.Unlock()
	for _, x := range ready {
		s.finish(x)
	}
}

// finish assembles x from its cells, all of which have run, or fails it
// with its first failed cell's error in declaration order.
func (s *suite) finish(x *suiteExp) {
	// Every cell of x has run, so its outcomes are final and were written
	// under mu before x.left reached zero.
	outs := make([]any, len(x.plan.cells))
	var err error
	for k := range outs {
		d := s.q.at[x.first+k]
		if s.errs[d] != nil && err == nil {
			err = s.errs[d]
		}
		outs[k] = s.outs[d]
	}
	var res *Result
	if err == nil {
		res = x.plan.assemble(outs)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	x.item.Result = res
	s.close(x, err)
}

// abandon fails x, whose cells did not all run because the suite was
// cancelled with cause. Called after every worker has returned.
func (s *suite) abandon(x *suiteExp, cause error) {
	id := x.item.Experiment.ID
	if !x.started {
		x.item.Err = fmt.Errorf("experiments: %s did not run: %w", id, cause)
		return
	}
	err := fmt.Errorf("experiments: %s: %w", id, cause)
	for k := range x.plan.cells {
		if e := s.errs[s.q.at[x.first+k]]; e != nil {
			err = e
			break
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.close(x, err)
}

// close records x's end and reports it. s.mu must be held.
func (s *suite) close(x *suiteExp, err error) {
	x.done = true
	x.item.Err = err
	x.item.Wall = x.watch.Elapsed()
	x.item.SimTime = sim.Duration(x.simMicros)
	fin := harness.Event{
		Kind:       harness.EventExperimentFinished,
		Experiment: x.item.Experiment.ID,
		Wall:       x.item.Wall,
		SimMicros:  x.simMicros,
	}
	if err != nil {
		fin.Err = err.Error()
	}
	s.emit(fin)
}
