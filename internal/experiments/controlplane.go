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
		Hosts:             3,
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

// runControlPlane compares cluster admission with the control plane off,
// with preemption alone, and with the full mechanism bundle (preemption,
// gang admission, backfill, descheduling) at equal offered load. It
// reports rejection rate, priority-weighted admission latency, the
// critical class's mean wait, and the mechanism activity counters.
func runControlPlane(ctx context.Context, opts Options) (*Result, error) {
	opts = opts.normalized()

	horizon := sim.Duration(float64(400*sim.Second) * opts.Scale)
	if opts.Horizon > 0 && horizon > opts.Horizon {
		horizon = opts.Horizon
	}

	cells, err := grid(ctx, opts.Workers, len(controlPlaneVariants), opts.Repeats,
		func(ctx context.Context, v, rep int) ([]float64, error) {
			variant := controlPlaneVariants[v]
			// The seed depends on the repeat only: every variant of one
			// repeat admits the same arrival stream.
			cfg := controlPlaneConfig(
				harness.DeriveSeed(opts.Seed, "controlplane", fmt.Sprint(rep)),
				horizon)
			variant.cfg(&cfg)
			c, err := cluster.New(cfg)
			if err != nil {
				return nil, err
			}
			res, err := c.Run(ctx)
			if err != nil {
				return nil, fmt.Errorf("controlplane %s: %w", variant.name, err)
			}
			opts.emitScenario("controlplane/"+variant.name, sim.Time(horizon))
			var critWait float64
			for _, p := range res.PerPriority {
				if p.Class == "critical" {
					critWait = p.MeanWait.Seconds()
				}
			}
			return []float64{res.RejectionRate, weightedWait(res), critWait,
				float64(res.Preemptions), float64(res.GangsAdmitted),
				float64(res.Backfills), float64(res.DeschedMoves)}, nil
		})
	if err != nil {
		return nil, err
	}

	r := &Result{ID: "cluster-controlplane", Title: "Cluster control-plane mechanisms at equal load"}
	t := metrics.NewTable(
		fmt.Sprintf("3 hosts, %v horizon, 1.0 arrivals/s, 20%% gangs (mean of %d seeds)",
			horizon, opts.Repeats),
		"mechanisms", "reject-rate", "weighted-wait", "crit-wait",
		"preempts", "gangs", "backfills", "desched")
	for v, variant := range controlPlaneVariants {
		m := means(cells[v])
		for i, series := range controlPlaneSeries {
			r.Set(series, variant.name, m[i])
		}
		t.AddRow(variant.name, metrics.Pct(m[0]),
			fmt.Sprintf("%.2fs", m[1]), fmt.Sprintf("%.2fs", m[2]),
			metrics.F(m[3]), metrics.F(m[4]), metrics.F(m[5]), metrics.F(m[6]))
	}
	t.AddNote("weighted-wait: mean admission wait with placed VMs weighted 1/2/4 by priority class")
	t.AddNote("every variant admits the byte-identical arrival stream; only the mechanisms differ")
	r.Tables = append(r.Tables, t)
	return r, nil
}

func init() {
	register(&Experiment{
		ID:    "cluster-controlplane",
		Title: "Control-plane mechanisms: preemption, gangs, backfill, descheduling",
		Paper: "beyond the paper: priority-aware admission on a cluster of vProbe hosts",
		run:   runControlPlane,
	})
}
