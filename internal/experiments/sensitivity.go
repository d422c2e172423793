package experiments

import (
	"context"
	"fmt"

	"vprobe/internal/metrics"
	"vprobe/internal/numa"
	"vprobe/internal/sched"
)

// runBoundsSensitivity sweeps the classification bounds of Eq. 3 around
// the paper's (3, 20) operating point on the mix workload. §IV-A notes
// that moving either bound changes how many VCPUs land in LLC-T / LLC-FI
// and thereby what the partitioner does; this experiment quantifies that.
func runBoundsSensitivity(ctx context.Context, opts Options) (*Result, error) {
	opts = opts.normalized()
	r := &Result{ID: "sensitivity-bounds", Title: "Sensitivity: classification bounds (low, high)"}
	t := metrics.NewTable(r.Title, "low", "high", "exec(s)", "remote")

	type point struct{ low, high float64 }
	points := []point{
		{3, 20},  // paper operating point
		{1, 20},  // aggressive: almost everything memory-intensive
		{8, 20},  // conservative low bound
		{3, 10},  // most VCPUs become LLC-T
		{3, 30},  // almost nothing is LLC-T
		{1, 100}, // one class: everything LLC-FI
		{20, 25}, // only extreme thrashers partitioned
	}
	cells, err := grid(ctx, opts.Workers, len(points), opts.Repeats,
		func(ctx context.Context, v, rep int) ([]float64, error) {
			pt := points[v]
			pol := sched.NewVProbe()
			pol.Analyzer.Bounds.Low = pt.low
			pol.Analyzer.Bounds.High = pt.high
			sc, err := standardScenario(numa.XeonE5620(), pol, opts.Seed+uint64(rep), mixApps(), mixApps(), opts.Scale)
			if err != nil {
				return nil, err
			}
			run, err := sc.run(ctx, opts.Horizon)
			if err != nil {
				return nil, fmt.Errorf("bounds %g/%g seed%d: %w", pt.low, pt.high, rep, err)
			}
			opts.emitScenario(fmt.Sprintf("bounds-%g-%g/seed%d", pt.low, pt.high, rep), run.End)
			return []float64{metrics.AvgExecSeconds(run.Runs), metrics.AvgRemoteRatio(run.Runs)}, nil
		})
	if err != nil {
		return nil, err
	}
	for v, pt := range points {
		m := means(cells[v])
		exec, remote := m[0], m[1]
		label := fmt.Sprintf("%g/%g", pt.low, pt.high)
		r.Set("exec/vprobe", label, exec)
		r.Set("remote/vprobe", label, remote)
		t.AddRow(fmt.Sprintf("%g", pt.low), fmt.Sprintf("%g", pt.high),
			fmt.Sprintf("%.2f", exec), metrics.Pct(remote))
	}
	t.AddNote("paper operating point is (3, 20); §IV-A discusses the trade-off")
	r.Tables = append(r.Tables, t)
	return r, nil
}

func init() {
	register(&Experiment{
		ID:    "sensitivity-bounds",
		Title: "Bound sensitivity sweep",
		Paper: "§IV-A: changing low/high shifts VCPUs between classes and changes partitioning",
		run:   runBoundsSensitivity,
	})
}
