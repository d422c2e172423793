package experiments

import (
	"context"
	"fmt"

	"vprobe/internal/harness"
	"vprobe/internal/mem"
	"vprobe/internal/metrics"
	"vprobe/internal/numa"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
	"vprobe/internal/workload"
	"vprobe/internal/xen"
)

// runFig8 reproduces §V-C2: the mix workload under vProbe with the
// sampling period swept from 0.1 s to 10 s. The paper finds a U-shape:
// short periods burn overhead and churn placements, long periods let the
// characteristics go stale; 1 s is the chosen operating point.
func runFig8(ctx context.Context, opts Options) (*Result, error) {
	opts = opts.normalized()
	r := &Result{ID: "fig8", Title: "Mix workload vs sampling period (paper Fig. 8)"}
	t := metrics.NewTable("Fig. 8", "period", "exec-time(s)", "overhead", "node-moves")

	periods := []sim.Duration{
		100 * sim.Millisecond,
		200 * sim.Millisecond,
		500 * sim.Millisecond,
		1 * sim.Second,
		2 * sim.Second,
		5 * sim.Second,
		10 * sim.Second,
	}
	type point struct {
		exec     float64
		overhead float64
		moves    int
	}
	points, err := harness.Map(ctx, harness.Workers(opts.Workers, len(periods)), len(periods),
		func(ctx context.Context, i int) (point, error) {
			period := periods[i]
			pol := sched.NewVProbe()
			pol.SamplePeriod = period
			sc, err := standardScenario(numa.XeonE5620(), pol, opts.Seed, mixApps(), mixApps(), opts.Scale)
			if err != nil {
				return point{}, err
			}
			run, err := sc.run(ctx, opts.Horizon)
			if err != nil {
				return point{}, fmt.Errorf("period %s: %w", period, err)
			}
			opts.emitScenario("period/"+period.String(), run.End)
			p := point{exec: metrics.AvgExecSeconds(run.Runs), overhead: run.Overhead}
			for _, app := range run.Runs {
				p.moves += app.NodeMoves
			}
			return p, nil
		})
	if err != nil {
		return nil, err
	}
	for i, period := range periods {
		label := period.String()
		r.Set("exec/vprobe", label, points[i].exec)
		r.Set("overhead/vprobe", label, points[i].overhead)
		t.AddRow(label, fmt.Sprintf("%.2f", points[i].exec),
			fmt.Sprintf("%.5f%%", 100*points[i].overhead), fmt.Sprintf("%d", points[i].moves))
	}
	t.AddNote("paper: execution time minimized at a 1s period")
	r.Tables = append(r.Tables, t)
	return r, nil
}

// runTable1 renders the platform description (paper Table I) from the
// topology preset, verifying the encoded machine matches the paper.
func runTable1(_ context.Context, opts Options) (*Result, error) {
	top := numa.XeonE5620()
	r := &Result{ID: "table1", Title: "Platform configuration (paper Table I)"}
	t := metrics.NewTable("Table I", "item", "value")
	t.AddRow("Cores", fmt.Sprintf("%d cores (%d sockets)", top.NumCPUs(), top.NumNodes()))
	t.AddRow("Clock frequency", fmt.Sprintf("%.2f GHz", top.ClockGHz()))
	t.AddRow("L3 cache", fmt.Sprintf("%d MB unified, shared by %d cores",
		top.LLCSizeKB(0)/1024, len(top.CPUsOf(0))))
	t.AddRow("IMC", fmt.Sprintf("%.1f GB/s bandwidth, %d memory nodes, each node has %d GB",
		top.Node(0).IMCBandwidthGBs, top.NumNodes(), top.Node(0).MemoryMB/1024))
	t.AddRow("QPI", fmt.Sprintf("%d links, %.2f GT/s", len(top.Links()), top.Links()[0].BandwidthGTs))
	t.AddRow("Latency (model)", fmt.Sprintf("local %.0f ns, remote %.0f ns",
		top.MemLatencyNS(0, 0), top.MemLatencyNS(0, 1)))
	r.Set("nodes/config", "nodes", float64(top.NumNodes()))
	r.Set("cpus/config", "cpus", float64(top.NumCPUs()))
	r.Tables = append(r.Tables, t)
	return r, nil
}

// runTable3 reproduces §V-C1: the percentage of "overhead time" (PMU
// collection + periodical partitioning) in total execution time, for one to
// four VMs each running two soplex instances on two VCPUs.
func runTable3(ctx context.Context, opts Options) (*Result, error) {
	opts = opts.normalized()
	r := &Result{ID: "table3", Title: "vProbe overhead time (paper Table III)"}
	t := metrics.NewTable("Table III", "VMs", "overhead-time %")
	const counts = 4
	fracs, err := harness.Map(ctx, harness.Workers(opts.Workers, counts), counts,
		func(ctx context.Context, idx int) (float64, error) {
			n := idx + 1
			pol := sched.NewVProbe()
			cfg := xen.DefaultConfig()
			cfg.Seed = opts.Seed
			h := xen.New(numa.XeonE5620(), pol, cfg)
			var doms []*xen.Domain
			for i := 0; i < n; i++ {
				d, err := h.CreateDomain(fmt.Sprintf("VM%d", i+1), 4*1024, 2, mem.PolicyStripe)
				if err != nil {
					return 0, err
				}
				if err := attachScaled(h, d, replicate(workload.Soplex(), 2), opts.Scale); err != nil {
					return 0, err
				}
				doms = append(doms, d)
			}
			h.WatchDomains(doms...)
			end, err := h.RunContext(ctx, opts.Horizon)
			if err != nil {
				return 0, fmt.Errorf("%d VMs: %w", n, err)
			}
			opts.emitScenario(fmt.Sprintf("vms/%d", n), end)
			return h.OverheadFraction(), nil
		})
	if err != nil {
		return nil, err
	}
	for idx, frac := range fracs {
		label := fmt.Sprintf("%d", idx+1)
		r.Set("overhead/vprobe", label, 100*frac)
		t.AddRow(label, fmt.Sprintf("%.5f", 100*frac))
	}
	t.AddNote("paper: 0.00847 / 0.01206 / 0.01619 / 0.01062 %% — all far below 0.1%%")
	r.Tables = append(r.Tables, t)
	return r, nil
}

func init() {
	register(&Experiment{
		ID:    "fig8",
		Title: "Sampling-period sensitivity",
		Paper: "Fig. 8: U-shaped execution time, minimum at 1 s",
		run:   runFig8,
	})
	register(&Experiment{
		ID:    "table1",
		Title: "Platform configuration",
		Paper: "Table I: 2x quad-core Xeon E5620, 12 MB L3/socket, 12 GB/node, 2 QPI links",
		run:   runTable1,
	})
	register(&Experiment{
		ID:    "table3",
		Title: "Overhead time",
		Paper: "Table III: overhead well below 0.1%, rising 1->3 VMs, dipping at 4",
		run:   runTable3,
	})
}
