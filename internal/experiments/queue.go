package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"

	"vprobe/internal/harness"
	"vprobe/internal/sim"
)

// cell is one simulation described by data: the unit of work every
// experiment declares and the queue runs.
type cell struct {
	// name labels the cell's scenario-finished progress event, e.g.
	// "soplex/vprobe/seed0"; it is not part of the cell's identity.
	name string
	spec cellSpec
}

// cellSpec is the data one simulation is built from. run builds the
// simulation from the spec's exported fields alone, so the spec's JSON
// encoding is a complete identity for it: two specs that encode equally
// simulate equally (TestCellSpecsEncodeEveryField checks every field
// reaches the encoding). run returns measured values, never the
// simulator, and treats the spec as read-only: specs and their outputs
// are shared between experiments.
type cellSpec interface {
	run(ctx context.Context) (out any, end sim.Time, err error)
	// cost estimates the cell's host time in arbitrary units, for
	// longest-expected-first ordering.
	cost() float64
}

// key is the cell's identity: the SHA-256 of its spec's type and JSON
// encoding. It is derived from the value run builds from, never written
// by hand; streaming the encoding into the hash keeps the suite's
// megabyte of spec text from ever being held at once.
func (c cell) key() ([sha256.Size]byte, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%T", c.spec)
	if err := json.NewEncoder(h).Encode(c.spec); err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("experiments: cell %s: %w", c.name, err)
	}
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k, nil
}

// queue is a list of declared cells with equal keys merged: distinct holds
// the first declaration of every key in declaration order, and at maps
// each declared cell to its distinct index.
type queue struct {
	distinct []cell
	at       []int
}

func newQueue(cells []cell) (*queue, error) {
	q := &queue{at: make([]int, len(cells))}
	index := make(map[[sha256.Size]byte]int, len(cells))
	for i, c := range cells {
		k, err := c.key()
		if err != nil {
			return nil, err
		}
		d, ok := index[k]
		if !ok {
			d = len(q.distinct)
			index[k] = d
			q.distinct = append(q.distinct, c)
		}
		q.at[i] = d
	}
	return q, nil
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
		cost[d] = c.spec.cost()
	}
	sort.SliceStable(order, func(i, j int) bool { return cost[order[i]] > cost[order[j]] })
	_, err := harness.Map(ctx, harness.Workers(workers, len(order)), len(order),
		func(ctx context.Context, i int) (struct{}, error) { return struct{}{}, fn(ctx, order[i]) })
	return err
}

// runCells runs cells through the queue and returns their outputs in
// declaration order. The first failure cancels the rest and is returned.
// Scenario completions go to opts.Events untagged.
func runCells(ctx context.Context, opts Options, cells []cell) ([]any, error) {
	q, err := newQueue(cells)
	if err != nil {
		return nil, err
	}
	outs := make([]any, len(q.distinct))
	err = q.run(ctx, opts.Workers, func(ctx context.Context, d int) error {
		c := q.distinct[d]
		out, end, err := c.spec.run(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		opts.emitScenario(c.name, end)
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
