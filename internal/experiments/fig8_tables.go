package experiments

import (
	"context"
	"fmt"
	"math"

	"vprobe/internal/mem"
	"vprobe/internal/metrics"
	"vprobe/internal/numa"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
	"vprobe/internal/workload"
	"vprobe/internal/xen"
)

// planFig8 reproduces §V-C2: the mix workload under vProbe with the
// sampling period swept from 0.1 s to 10 s. The paper finds a U-shape:
// short periods burn overhead and churn placements, long periods let the
// characteristics go stale; 1 s is the chosen operating point, which makes
// that cell stock vProbe's.
func planFig8(opts Options) plan {
	opts = opts.normalized()
	periods := []sim.Duration{
		100 * sim.Millisecond,
		200 * sim.Millisecond,
		500 * sim.Millisecond,
		1 * sim.Second,
		2 * sim.Second,
		5 * sim.Second,
		10 * sim.Second,
	}
	top := numa.XeonE5620()
	cells := make([]cell, len(periods))
	for i, period := range periods {
		pol := stockPolicy(sched.KindVProbe)
		pol.SamplePeriod = period
		cells[i] = standardCell("period/"+period.String(), top, pol, opts.Seed, mixApps(), mixApps(), opts)
	}
	return plan{cells: cells, assemble: func(outs []any) *Result {
		r := &Result{ID: "fig8", Title: "Mix workload vs sampling period (paper Fig. 8)"}
		t := metrics.NewTable("Fig. 8", "period", "exec-time(s)", "overhead", "node-moves")
		for i, run := range as[ScenarioRun](outs) {
			label := periods[i].String()
			exec := metrics.AvgExecSeconds(run.Runs)
			moves := 0
			for _, app := range run.Runs {
				moves += app.NodeMoves
			}
			r.Set("exec/vprobe", label, exec)
			r.Set("overhead/vprobe", label, run.Overhead)
			t.AddRow(label, fmt.Sprintf("%.2f", exec),
				fmt.Sprintf("%.5f%%", 100*run.Overhead), fmt.Sprintf("%d", moves))
		}
		t.AddNote("paper: execution time minimized at a 1s period")
		r.Tables = append(r.Tables, t)
		return r
	}}
}

// planTable1 renders the platform description (paper Table I) from the
// topology preset, verifying the encoded machine matches the paper. It
// simulates nothing.
func planTable1(Options) plan {
	return plan{assemble: func([]any) *Result {
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
		return r
	}}
}

// table3Spec is one Table III cell: VMs domains of 4 GB and two VCPUs,
// each running two soplex instances, under vProbe. Its output is the
// overhead-time fraction.
type table3Spec struct {
	VMs     int
	Seed    uint64
	Scale   float64
	Horizon sim.Duration
}

func (s table3Spec) run(ctx context.Context) (any, sim.Time, error) {
	cfg := xen.DefaultConfig()
	cfg.Seed = s.Seed
	h := xen.New(numa.XeonE5620(), sched.NewVProbe(), cfg)
	var doms []*xen.Domain
	for i := 0; i < s.VMs; i++ {
		d, err := h.CreateDomain(fmt.Sprintf("VM%d", i+1), 4*1024, 2, mem.PolicyStripe)
		if err != nil {
			return nil, 0, err
		}
		if err := attachScaled(h, d, replicate(workload.Soplex(), 2), s.Scale); err != nil {
			return nil, 0, err
		}
		doms = append(doms, d)
	}
	h.WatchDomains(doms...)
	end, err := h.RunContext(ctx, s.Horizon)
	if err != nil {
		return nil, 0, err
	}
	return h.OverheadFraction(), end, nil
}

// cost is one soplex run on each of the cell's busy PCPUs.
func (s table3Spec) cost() float64 {
	top := numa.XeonE5620()
	busy := math.Min(float64(2*s.VMs), float64(top.NumCPUs()))
	return busy * runSeconds(top, []*workload.Profile{workload.Soplex()}, s.Scale, s.Horizon)
}

// planTable3 reproduces §V-C1: the percentage of "overhead time" (PMU
// collection + periodical partitioning) in total execution time, for one to
// four VMs each running two soplex instances on two VCPUs.
func planTable3(opts Options) plan {
	opts = opts.normalized()
	const counts = 4
	cells := make([]cell, counts)
	for i := range cells {
		n := i + 1
		cells[i] = cell{name: fmt.Sprintf("vms/%d", n), spec: table3Spec{
			VMs: n, Seed: opts.Seed, Scale: opts.Scale, Horizon: opts.Horizon,
		}}
	}
	return plan{cells: cells, assemble: func(outs []any) *Result {
		r := &Result{ID: "table3", Title: "vProbe overhead time (paper Table III)"}
		t := metrics.NewTable("Table III", "VMs", "overhead-time %")
		for idx, frac := range as[float64](outs) {
			label := fmt.Sprintf("%d", idx+1)
			r.Set("overhead/vprobe", label, 100*frac)
			t.AddRow(label, fmt.Sprintf("%.5f", 100*frac))
		}
		t.AddNote("paper: 0.00847 / 0.01206 / 0.01619 / 0.01062 %% — all far below 0.1%%")
		r.Tables = append(r.Tables, t)
		return r
	}}
}

func init() {
	register(&Experiment{
		ID:    "fig8",
		Title: "Sampling-period sensitivity",
		Paper: "Fig. 8: U-shaped execution time, minimum at 1 s",
		plan:  planFig8,
	})
	register(&Experiment{
		ID:    "table1",
		Title: "Platform configuration",
		Paper: "Table I: 2x quad-core Xeon E5620, 12 MB L3/socket, 12 GB/node, 2 QPI links",
		plan:  planTable1,
	})
	register(&Experiment{
		ID:    "table3",
		Title: "Overhead time",
		Paper: "Table III: overhead well below 0.1%, rising 1->3 VMs, dipping at 4",
		plan:  planTable3,
	})
}
