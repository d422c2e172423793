package experiments

import (
	"fmt"

	"vprobe/internal/cluster"
	"vprobe/internal/harness"
	"vprobe/internal/metrics"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
	"vprobe/internal/spec"
)

// clusterScheds is the per-host scheduler comparison the cluster
// experiment runs: the baseline against the paper's scheduler.
var clusterScheds = []sched.Kind{sched.KindCredit, sched.KindVProbe}

// clusterHosts is the host count of both cluster experiments.
const clusterHosts = 3

// clusterHorizon is both cluster experiments' run length: ~400 virtual
// seconds at full scale, capped at the option horizon.
func clusterHorizon(opts Options) sim.Duration {
	horizon := sim.Duration(float64(400*sim.Second) * opts.Scale)
	if opts.Horizon > 0 && horizon > opts.Horizon {
		horizon = opts.Horizon
	}
	return horizon
}

// planCluster compares the placement policies (pack, spread, numa) on a
// multi-host cluster under a dynamic VM arrival/departure stream, once per
// per-host scheduler. It reports admission quality (rejection rate),
// placement quality (cluster-wide remote-access ratio), and rebalancer
// activity (inter-host migrations).
func planCluster(opts Options) plan {
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
	horizon := clusterHorizon(opts)

	// One variant per (policy, scheduler) pair, policy-major.
	var cells []Cell
	for _, pol := range policies {
		for _, kind := range kinds {
			for rep := 0; rep < opts.Repeats; rep++ {
				cells = append(cells, Cell{Name: fmt.Sprintf("cluster/%s/%s/seed%d", pol, kind, rep), Spec: spec.ClusterV1{
					Hosts:     clusterHosts,
					Scheduler: string(kind),
					Policy:    pol,
					Seed:      harness.DeriveSeed(opts.Seed, "cluster", pol, string(kind), fmt.Sprint(rep)),
					// VMs live half the horizon so the cluster reaches a
					// churning steady state.
					ArrivalsPerSecond: 0.6,
					MeanLifetime:      duration(horizon / 2),
					Horizon:           duration(horizon),
					// The queue already spreads cells across workers; hosts
					// inside each cluster advance serially.
					Workers:          1,
					LLCPressureLimit: 25,
					RebalancePeriod:  duration(5 * sim.Second),
				}})
			}
		}
	}
	return plan{cells: cells, assemble: func(outs []any) *Result {
		r := &Result{ID: "cluster", Title: "Placement policies on a multi-host cluster"}
		t := metrics.NewTable(
			fmt.Sprintf("%d hosts, %v horizon, dynamic arrivals (mean of %d seeds)",
				clusterHosts, horizon, opts.Repeats),
			"policy", "scheduler", "reject-rate", "remote-ratio", "migrations", "utilization")
		rows := make([][]float64, len(outs))
		for i, rep := range as[*cluster.Report](outs) {
			rows[i] = []float64{rep.RejectionRate, rep.RemoteRatio, float64(rep.Migrations), rep.Utilization}
		}
		for v, m := range variantMeans(rows, opts.Repeats) {
			pol, label := policies[v/len(kinds)], schedLabel(kinds[v%len(kinds)])
			for i, series := range []string{"reject", "remote", "migrations", "util"} {
				r.Set(series+"/"+label, pol, m[i])
			}
			t.AddRow(pol, label, metrics.Pct(m[0]), metrics.Pct(m[1]), metrics.F(m[2]), metrics.Pct(m[3]))
		}
		t.AddNote("numa filters hosts by per-node free chunks (Gudkov-style accounting) before scoring")
		t.AddNote("migrations: rebalancer moves off hosts past the LLC-pressure/remote-ratio thresholds")
		r.Tables = append(r.Tables, t)
		return r
	}}
}

func init() {
	register(&Experiment{
		ID:    "cluster",
		Title: "Multi-host placement policy comparison",
		Paper: "beyond the paper: pack vs spread vs numa admission on a cluster of vProbe hosts",
		plan:  planCluster,
	})
}
