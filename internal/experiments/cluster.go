package experiments

import (
	"context"
	"fmt"

	"vprobe/internal/cluster"
	"vprobe/internal/harness"
	"vprobe/internal/metrics"
	"vprobe/internal/numa"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
)

// clusterScheds is the per-host scheduler comparison the cluster
// experiment runs: the baseline against the paper's scheduler.
var clusterScheds = []sched.Kind{sched.KindCredit, sched.KindVProbe}

// clusterHosts is the host count of both cluster experiments.
const clusterHosts = 3

// clusterSpec is one cell of the cluster experiment: Hosts hosts under
// Scheduler placing a dynamic arrival stream with Policy. Its output is
// the rejection rate, remote ratio, migration count and utilization.
type clusterSpec struct {
	Policy    string
	Scheduler sched.Kind
	Seed      uint64
	Horizon   sim.Duration
}

func (s clusterSpec) run(ctx context.Context) (any, sim.Time, error) {
	c, err := cluster.New(cluster.Config{
		Hosts:     clusterHosts,
		Scheduler: s.Scheduler,
		Policy:    s.Policy,
		Seed:      s.Seed,
		// VMs live half the horizon so the cluster reaches a churning
		// steady state.
		ArrivalsPerSecond: 0.6,
		MeanLifetime:      s.Horizon / 2,
		Horizon:           s.Horizon,
		// The queue already spreads cells across workers; hosts inside
		// each cluster advance serially.
		Workers:          1,
		LLCPressureLimit: 25,
		RebalancePeriod:  5 * sim.Second,
	})
	if err != nil {
		return nil, 0, err
	}
	res, err := c.Run(ctx)
	if err != nil {
		return nil, 0, err
	}
	return []float64{res.RejectionRate, res.RemoteRatio, float64(res.Migrations), res.Utilization}, sim.Time(s.Horizon), nil
}

// cost is the horizon on every host PCPU.
func (s clusterSpec) cost() float64 { return clusterCost(s.Horizon) }

// clusterCost is a cluster cell's horizon on every PCPU of its hosts.
func clusterCost(horizon sim.Duration) float64 {
	return clusterHosts * float64(numa.XeonE5620().NumCPUs()) * horizon.Seconds()
}

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
	var cells []cell
	for _, pol := range policies {
		for _, kind := range kinds {
			for rep := 0; rep < opts.Repeats; rep++ {
				cells = append(cells, cell{name: fmt.Sprintf("cluster/%s/%s", pol, kind), spec: clusterSpec{
					Policy: pol, Scheduler: kind, Horizon: horizon,
					Seed: harness.DeriveSeed(opts.Seed, "cluster", pol, string(kind), fmt.Sprint(rep)),
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
		for v, m := range variantMeans(as[[]float64](outs), opts.Repeats) {
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
