package experiments

import (
	"fmt"

	"vprobe/internal/cluster"
	"vprobe/internal/harness"
	"vprobe/internal/metrics"
	"vprobe/internal/sim"
	"vprobe/internal/spec"
)

// controlPlaneVariants are the admission-mechanism bundles the experiment
// compares. Every variant sees the byte-identical arrival stream (sizes,
// priorities, lifetimes, gang membership) — the generator draws gangs
// whenever GangFraction is positive regardless of the Gang toggle — so the
// comparison isolates what admission does with equal offered load.
var controlPlaneVariants = []struct {
	name string
	tune func(*spec.ClusterV1)
}{
	{"none", func(*spec.ClusterV1) {}},
	{"preempt", func(c *spec.ClusterV1) { c.Preempt = true }},
	{"full", func(c *spec.ClusterV1) {
		c.Preempt = true
		c.Gang = true
		c.Backfill = true
		c.DeschedulePeriod = duration(10 * sim.Second)
	}},
}

// controlPlaneSeries names one run's outcome values, in order: rejection
// rate, priority-weighted mean wait and the critical class's mean wait
// (seconds), then the preemption, gang, backfill and deschedule counts.
var controlPlaneSeries = []string{
	"reject", "weighted-wait", "crit-wait", "preemptions", "gangs", "backfills", "desched",
}

// overloadCluster is the shared overload scenario: a small cluster under
// sustained pressure (long-lived VMs at a high arrival rate), where the
// admission queue backs up and mechanism differences become visible.
func overloadCluster(seed uint64, horizon sim.Duration) spec.ClusterV1 {
	return spec.ClusterV1{
		Hosts:             clusterHosts,
		Seed:              seed,
		ArrivalsPerSecond: 1.0,
		MeanLifetime:      duration(horizon),
		Horizon:           duration(horizon),
		GangFraction:      0.2,
		Workers:           1,
	}
}

// weightedWait folds the per-class mean waits into one number using the
// class weights (best-effort 1, standard 2, critical 4): the mean wait of
// a placed VM drawn with probability proportional to its class weight.
func weightedWait(rep *cluster.Report) float64 {
	var num, den float64
	for i, p := range rep.PerPriority {
		w := cluster.Priority(i).Weight() * float64(p.Placed)
		num += w * p.MeanWait.Seconds()
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// controlPlaneRow is one run's controlPlaneSeries values.
func controlPlaneRow(rep *cluster.Report) []float64 {
	var critWait float64
	for _, p := range rep.PerPriority {
		if p.Class == "critical" {
			critWait = p.MeanWait.Seconds()
		}
	}
	return []float64{rep.RejectionRate, weightedWait(rep), critWait,
		float64(rep.Preemptions), float64(rep.GangsAdmitted),
		float64(rep.Backfills), float64(rep.DeschedMoves)}
}

// planControlPlane compares cluster admission with the control plane off,
// with preemption alone, and with the full mechanism bundle (preemption,
// gang admission, backfill, descheduling) at equal offered load. It
// reports rejection rate, priority-weighted admission latency, the
// critical class's mean wait, and the mechanism activity counters.
func planControlPlane(opts Options) plan {
	opts = opts.normalized()
	horizon := clusterHorizon(opts)
	var cells []Cell
	for _, variant := range controlPlaneVariants {
		for rep := 0; rep < opts.Repeats; rep++ {
			// The seed depends on the repeat only: every variant of one
			// repeat admits the same arrival stream.
			s := overloadCluster(harness.DeriveSeed(opts.Seed, "controlplane", fmt.Sprint(rep)), horizon)
			variant.tune(&s)
			cells = append(cells, Cell{Name: fmt.Sprintf("controlplane/%s/seed%d", variant.name, rep), Spec: s})
		}
	}
	return plan{cells: cells, assemble: func(outs []any) *Result {
		r := &Result{ID: "cluster-controlplane", Title: "Cluster control-plane mechanisms at equal load"}
		t := metrics.NewTable(
			fmt.Sprintf("%d hosts, %v horizon, 1.0 arrivals/s, 20%% gangs (mean of %d seeds)",
				clusterHosts, horizon, opts.Repeats),
			"mechanisms", "reject-rate", "weighted-wait", "crit-wait",
			"preempts", "gangs", "backfills", "desched")
		rows := make([][]float64, len(outs))
		for i, rep := range as[*cluster.Report](outs) {
			rows[i] = controlPlaneRow(rep)
		}
		for v, m := range variantMeans(rows, opts.Repeats) {
			name := controlPlaneVariants[v].name
			for i, series := range controlPlaneSeries {
				r.Set(series, name, m[i])
			}
			t.AddRow(name, metrics.Pct(m[0]),
				fmt.Sprintf("%.2fs", m[1]), fmt.Sprintf("%.2fs", m[2]),
				metrics.F(m[3]), metrics.F(m[4]), metrics.F(m[5]), metrics.F(m[6]))
		}
		t.AddNote("weighted-wait: mean admission wait with placed VMs weighted 1/2/4 by priority class")
		t.AddNote("every variant admits the byte-identical arrival stream; only the mechanisms differ")
		r.Tables = append(r.Tables, t)
		return r
	}}
}

func init() {
	register(&Experiment{
		ID:    "cluster-controlplane",
		Title: "Control-plane mechanisms: preemption, gangs, backfill, descheduling",
		Paper: "beyond the paper: priority-aware admission on a cluster of vProbe hosts",
		plan:  planControlPlane,
	})
}
