package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"vprobe/internal/cluster"
	"vprobe/internal/harness"
	"vprobe/internal/numa"
	"vprobe/internal/sim"
	"vprobe/internal/spec"
)

// Cell is one simulation described by data: the unit of work every
// experiment declares and the queue runs.
type Cell struct {
	// Name labels the cell's scenario-finished progress event and is
	// unique within its experiment, e.g. "soplex/vprobe/seed0"; it is not
	// part of the cell's identity.
	Name string
	// Spec is the simulation: a spec.ScenarioV1, whose cell yields a
	// ScenarioRun, or a spec.ClusterV1, whose cell yields its
	// *cluster.Report. Its Key is the cell's identity: specs and their
	// outputs are shared between experiments, so both are read-only.
	Spec interface{ Key() string }
}

// run simulates the cell.
func (c Cell) run(ctx context.Context) (any, sim.Time, error) {
	switch s := c.Spec.(type) {
	case spec.ScenarioV1:
		run, err := runScenario(ctx, s)
		return run, run.End, err
	case spec.ClusterV1:
		if err := s.Validate(); err != nil {
			return nil, 0, err
		}
		cl, err := cluster.New(s.Config())
		if err != nil {
			return nil, 0, err
		}
		rep, err := cl.Run(ctx)
		if err != nil {
			return nil, 0, err
		}
		return rep, sim.Time(rep.Horizon), nil
	}
	return nil, 0, fmt.Errorf("experiments: cell %s holds a %T, not a spec", c.Name, c.Spec)
}

// cost estimates the cell's host time in arbitrary units, for
// longest-expected-first ordering: the PCPUs it keeps busy times the
// virtual seconds it runs. A scenario keeps min(app-carrying VCPUs, PCPUs)
// busy until its longest finite watched app ends at base CPI, capped at
// the horizon (the horizon itself when a watched app never ends). A
// cluster keeps every host PCPU busy for its horizon.
func (c Cell) cost() float64 {
	switch s := c.Spec.(type) {
	case spec.ScenarioV1:
		n := s.Normalize()
		top := numa.Presets[n.Topology]()
		horizon := n.Horizon.Sim().Seconds()
		busy, longest := 0, 0.0
		for _, vm := range n.VMs {
			busy += len(vm.Apps)
			if vm.FillGuestIdle {
				busy += vm.VCPUs - len(vm.Apps)
			}
		}
		for _, p := range watchedProfiles(n) {
			if p.Endless() {
				longest = horizon
			}
			longest = math.Max(longest, p.TotalInstructions*p.BaseCPI/(top.ClockGHz()*1e9))
		}
		return float64(min(busy, top.NumCPUs())) * math.Min(longest, horizon)
	case spec.ClusterV1:
		cfg := s.Config()
		return float64(cfg.Hosts*cfg.Topology.Nodes*cfg.Topology.CPUsPerNode) * cfg.Horizon.Seconds()
	}
	return 0
}

// queue is a list of declared cells with equal keys merged: distinct holds
// the first declaration of every key in declaration order, and at maps
// each declared cell to its distinct index.
type queue struct {
	distinct []Cell
	at       []int
}

func newQueue(cells []Cell) *queue {
	q := &queue{at: make([]int, len(cells))}
	index := make(map[string]int, len(cells))
	for i, c := range cells {
		k := c.Spec.Key()
		d, ok := index[k]
		if !ok {
			d = len(q.distinct)
			index[k] = d
			q.distinct = append(q.distinct, c)
		}
		q.at[i] = d
	}
	return q
}

// run calls fn once for every distinct cell through one harness.Map
// bounded by workers, longest expected cell first (ties in declaration
// order). Because cells are fixed by their specs, the order and the
// worker count change only when each result arrives, never what it is.
// fn's first error cancels the remaining cells and is returned.
func (q *queue) run(ctx context.Context, workers int, fn func(ctx context.Context, d int) error) error {
	order := make([]int, len(q.distinct))
	cost := make([]float64, len(q.distinct))
	for d, c := range q.distinct {
		order[d] = d
		cost[d] = c.cost()
	}
	sort.SliceStable(order, func(i, j int) bool { return cost[order[i]] > cost[order[j]] })
	_, err := harness.Map(ctx, harness.Workers(workers, len(order)), len(order),
		func(ctx context.Context, i int) (struct{}, error) { return struct{}{}, fn(ctx, order[i]) })
	return err
}

// runCells runs cells through the queue and returns their outputs in
// declaration order. The first failure cancels the rest and is returned.
// Scenario completions go to opts.Events untagged.
func runCells(ctx context.Context, opts Options, cells []Cell) ([]any, error) {
	q := newQueue(cells)
	outs := make([]any, len(q.distinct))
	err := q.run(ctx, opts.Workers, func(ctx context.Context, d int) error {
		c := q.distinct[d]
		out, end, err := c.run(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		opts.emitScenario(c.Name, end)
		outs[d] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	declared := make([]any, len(cells))
	for i, d := range q.at {
		declared[i] = outs[d]
	}
	return declared, nil
}

// as converts cell outputs to the concrete type their spec returns.
func as[T any](outs []any) []T {
	typed := make([]T, len(outs))
	for i, o := range outs {
		typed[i] = o.(T)
	}
	return typed
}

// variantMeans groups value rows declared variant-major, repeats rows per
// variant, into each variant's column means (see means).
func variantMeans(rows [][]float64, repeats int) [][]float64 {
	out := make([][]float64, 0, len(rows)/repeats)
	for v := 0; v < len(rows); v += repeats {
		out = append(out, means(rows[v:v+repeats]))
	}
	return out
}

// means returns the column means of rows, each column summed in row order
// by sim.Mean.
func means(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make([]float64, len(rows[0]))
	col := make([]float64, len(rows))
	for j := range out {
		for i, row := range rows {
			col[i] = row[j]
		}
		out[j] = sim.Mean(col)
	}
	return out
}
