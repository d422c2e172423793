package experiments

import (
	"context"
	"fmt"

	"vprobe/internal/cluster"
	"vprobe/internal/harness"
	"vprobe/internal/metrics"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
)

// clusterScheds is the per-host scheduler comparison the cluster
// experiment runs: the baseline against the paper's scheduler.
var clusterScheds = []sched.Kind{sched.KindCredit, sched.KindVProbe}

// runCluster compares the placement policies (pack, spread, numa) on a
// multi-host cluster under a dynamic VM arrival/departure stream, once per
// per-host scheduler. It reports admission quality (rejection rate),
// placement quality (cluster-wide remote-access ratio), and rebalancer
// activity (inter-host migrations).
func runCluster(ctx context.Context, opts Options) (*Result, error) {
	opts = opts.normalized()

	// Honor an explicit scheduler restriction, but never leave the
	// credit-vs-vprobe frame this experiment is about.
	var kinds []sched.Kind
	for _, k := range opts.Schedulers {
		for _, want := range clusterScheds {
			if k == want {
				kinds = append(kinds, k)
			}
		}
	}
	if len(kinds) == 0 {
		kinds = clusterScheds
	}
	policies := cluster.Policies()

	// ~400 virtual seconds at full scale; VMs live half the horizon so the
	// cluster reaches a churning steady state.
	horizon := sim.Duration(float64(400*sim.Second) * opts.Scale)
	if opts.Horizon > 0 && horizon > opts.Horizon {
		horizon = opts.Horizon
	}

	// One variant per (policy, scheduler) pair, policy-major.
	cells, err := grid(ctx, opts.Workers, len(policies)*len(kinds), opts.Repeats,
		func(ctx context.Context, v, rep int) ([]float64, error) {
			pol, kind := policies[v/len(kinds)], kinds[v%len(kinds)]
			c, err := cluster.New(cluster.Config{
				Hosts:     3,
				Scheduler: kind,
				Policy:    pol,
				Seed: harness.DeriveSeed(opts.Seed, "cluster", pol,
					string(kind), fmt.Sprint(rep)),
				ArrivalsPerSecond: 0.6,
				MeanLifetime:      horizon / 2,
				Horizon:           horizon,
				// The experiment already fans cells across workers; hosts
				// inside each cluster advance serially.
				Workers:          1,
				LLCPressureLimit: 25,
				RebalancePeriod:  5 * sim.Second,
			})
			if err != nil {
				return nil, err
			}
			res, err := c.Run(ctx)
			if err != nil {
				return nil, fmt.Errorf("cluster %s/%s: %w", pol, kind, err)
			}
			opts.emitScenario(fmt.Sprintf("cluster/%s/%s", pol, kind), sim.Time(horizon))
			return []float64{res.RejectionRate, res.RemoteRatio, float64(res.Migrations), res.Utilization}, nil
		})
	if err != nil {
		return nil, err
	}

	r := &Result{ID: "cluster", Title: "Placement policies on a multi-host cluster"}
	t := metrics.NewTable(
		fmt.Sprintf("3 hosts, %v horizon, dynamic arrivals (mean of %d seeds)",
			horizon, opts.Repeats),
		"policy", "scheduler", "reject-rate", "remote-ratio", "migrations", "utilization")
	for v, runs := range cells {
		pol, label := policies[v/len(kinds)], schedLabel(kinds[v%len(kinds)])
		m := means(runs)
		for i, series := range []string{"reject", "remote", "migrations", "util"} {
			r.Set(series+"/"+label, pol, m[i])
		}
		t.AddRow(pol, label, metrics.Pct(m[0]), metrics.Pct(m[1]), metrics.F(m[2]), metrics.Pct(m[3]))
	}
	t.AddNote("numa filters hosts by per-node free chunks (Gudkov-style accounting) before scoring")
	t.AddNote("migrations: rebalancer moves off hosts past the LLC-pressure/remote-ratio thresholds")
	r.Tables = append(r.Tables, t)
	return r, nil
}

func init() {
	register(&Experiment{
		ID:    "cluster",
		Title: "Multi-host placement policy comparison",
		Paper: "beyond the paper: pack vs spread vs numa admission on a cluster of vProbe hosts",
		run:   runCluster,
	})
}
