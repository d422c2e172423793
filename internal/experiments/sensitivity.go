package experiments

import (
	"fmt"

	"vprobe/internal/core"
	"vprobe/internal/metrics"
	"vprobe/internal/sched"
	"vprobe/internal/spec"
)

// planBoundsSensitivity sweeps the classification bounds of Eq. 3 around
// the paper's (3, 20) operating point on the mix workload. §IV-A notes
// that moving either bound changes how many VCPUs land in LLC-T / LLC-FI
// and thereby what the partitioner does; this experiment quantifies that.
// The (3, 20) point is stock vProbe.
func planBoundsSensitivity(opts Options) plan {
	opts = opts.normalized()
	points := []core.Bounds{
		{Low: 3, High: 20},  // paper operating point
		{Low: 1, High: 20},  // aggressive: almost everything memory-intensive
		{Low: 8, High: 20},  // conservative low bound
		{Low: 3, High: 10},  // most VCPUs become LLC-T
		{Low: 3, High: 30},  // almost nothing is LLC-T
		{Low: 1, High: 100}, // one class: everything LLC-FI
		{Low: 20, High: 25}, // only extreme thrashers partitioned
	}
	var cells []Cell
	for _, pt := range points {
		for rep := 0; rep < opts.Repeats; rep++ {
			s := standard("xeon-e5620", sched.KindVProbe, opts.Seed+uint64(rep), mixApps(), mixApps(), opts)
			s.Bounds = &spec.BoundsV1{Low: pt.Low, High: pt.High}
			cells = append(cells, Cell{Name: fmt.Sprintf("bounds-%g-%g/seed%d", pt.Low, pt.High, rep), Spec: s})
		}
	}
	return plan{cells: cells, assemble: func(outs []any) *Result {
		r := &Result{ID: "sensitivity-bounds", Title: "Sensitivity: classification bounds (low, high)"}
		t := metrics.NewTable(r.Title, "low", "high", "exec(s)", "remote")
		rows := make([][]float64, len(outs))
		for i, run := range as[ScenarioRun](outs) {
			rows[i] = []float64{metrics.AvgExecSeconds(run.Runs), metrics.AvgRemoteRatio(run.Runs)}
		}
		for v, m := range variantMeans(rows, opts.Repeats) {
			exec, remote := m[0], m[1]
			pt := points[v]
			label := fmt.Sprintf("%g/%g", pt.Low, pt.High)
			r.Set("exec/vprobe", label, exec)
			r.Set("remote/vprobe", label, remote)
			t.AddRow(fmt.Sprintf("%g", pt.Low), fmt.Sprintf("%g", pt.High),
				fmt.Sprintf("%.2f", exec), metrics.Pct(remote))
		}
		t.AddNote("paper operating point is (3, 20); §IV-A discusses the trade-off")
		r.Tables = append(r.Tables, t)
		return r
	}}
}

func init() {
	register(&Experiment{
		ID:    "sensitivity-bounds",
		Title: "Bound sensitivity sweep",
		Paper: "§IV-A: changing low/high shifts VCPUs between classes and changes partitioning",
		plan:  planBoundsSensitivity,
	})
}
