package experiments

import (
	"context"
	"fmt"

	"vprobe/internal/cluster"
	"vprobe/internal/controlplane"
	"vprobe/internal/harness"
	"vprobe/internal/metrics"
	"vprobe/internal/sim"
)

// controlPlaneVariants are the admission-mechanism bundles the experiment
// compares. Every variant sees the byte-identical arrival stream (sizes,
// priorities, lifetimes, gang membership) — the generator draws gangs
// whenever GangFraction is positive regardless of the Gang toggle — so the
// comparison isolates what admission does with equal offered load.
var controlPlaneVariants = []struct {
	name string
	cfg  func(*cluster.Config)
}{
	{"none", func(*cluster.Config) {}},
	{"preempt", func(c *cluster.Config) { c.Preempt = true }},
	{"full", func(c *cluster.Config) {
		c.Preempt = true
		c.Gang = true
		c.Backfill = true
		c.DeschedulePeriod = 10 * sim.Second
	}},
}

// controlPlaneSeries names one run's outcome values, in order: rejection
// rate, priority-weighted mean wait and the critical class's mean wait
// (seconds), then the preemption, gang, backfill and deschedule counts.
var controlPlaneSeries = []string{
	"reject", "weighted-wait", "crit-wait", "preemptions", "gangs", "backfills", "desched",
}

// controlPlaneConfig is the shared overload scenario: a small cluster under
// sustained pressure (long-lived VMs at a high arrival rate), where the
// admission queue backs up and mechanism differences become visible.
func controlPlaneConfig(seed uint64, horizon sim.Duration) cluster.Config {
	return cluster.Config{
		Hosts:             clusterHosts,
		Seed:              seed,
		ArrivalsPerSecond: 1.0,
		MeanLifetime:      horizon,
		Horizon:           horizon,
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
		w := controlplane.Priority(i).Weight() * float64(p.Placed)
		num += w * p.MeanWait.Seconds()
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// controlPlaneSpec is one cell of the control-plane experiment: the
// overload scenario at Seed and Horizon with the named mechanism Variant
// (see controlPlaneVariants). Its output is the controlPlaneSeries values.
type controlPlaneSpec struct {
	Variant string
	Seed    uint64
	Horizon sim.Duration
}

func (s controlPlaneSpec) run(ctx context.Context) (any, sim.Time, error) {
	cfg := controlPlaneConfig(s.Seed, s.Horizon)
	for _, v := range controlPlaneVariants {
		if v.name == s.Variant {
			v.cfg(&cfg)
		}
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	res, err := c.Run(ctx)
	if err != nil {
		return nil, 0, err
	}
	var critWait float64
	for _, p := range res.PerPriority {
		if p.Class == "critical" {
			critWait = p.MeanWait.Seconds()
		}
	}
	return []float64{res.RejectionRate, weightedWait(res), critWait,
		float64(res.Preemptions), float64(res.GangsAdmitted),
		float64(res.Backfills), float64(res.DeschedMoves)}, sim.Time(s.Horizon), nil
}

func (s controlPlaneSpec) cost() float64 { return clusterCost(s.Horizon) }

// planControlPlane compares cluster admission with the control plane off,
// with preemption alone, and with the full mechanism bundle (preemption,
// gang admission, backfill, descheduling) at equal offered load. It
// reports rejection rate, priority-weighted admission latency, the
// critical class's mean wait, and the mechanism activity counters.
func planControlPlane(opts Options) plan {
	opts = opts.normalized()
	horizon := clusterHorizon(opts)
	var cells []cell
	for _, variant := range controlPlaneVariants {
		for rep := 0; rep < opts.Repeats; rep++ {
			// The seed depends on the repeat only: every variant of one
			// repeat admits the same arrival stream.
			cells = append(cells, cell{name: "controlplane/" + variant.name, spec: controlPlaneSpec{
				Variant: variant.name, Horizon: horizon,
				Seed: harness.DeriveSeed(opts.Seed, "controlplane", fmt.Sprint(rep)),
			}})
		}
	}
	return plan{cells: cells, assemble: func(outs []any) *Result {
		r := &Result{ID: "cluster-controlplane", Title: "Cluster control-plane mechanisms at equal load"}
		t := metrics.NewTable(
			fmt.Sprintf("%d hosts, %v horizon, 1.0 arrivals/s, 20%% gangs (mean of %d seeds)",
				clusterHosts, horizon, opts.Repeats),
			"mechanisms", "reject-rate", "weighted-wait", "crit-wait",
			"preempts", "gangs", "backfills", "desched")
		for v, m := range variantMeans(as[[]float64](outs), opts.Repeats) {
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
