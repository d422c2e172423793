package experiments

import (
	"fmt"

	"vprobe/internal/metrics"
	"vprobe/internal/numa"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
	"vprobe/internal/spec"
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
	cells := make([]Cell, len(periods))
	for i, period := range periods {
		s := standard("xeon-e5620", sched.KindVProbe, opts.Seed, mixApps(), mixApps(), opts)
		s.SamplePeriod = duration(period)
		cells[i] = Cell{Name: "period/" + period.String(), Spec: s}
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

// table3Cell is one Table III cell: vms domains of 4 GB and two VCPUs,
// each running two soplex instances, under vProbe until all finish.
func table3Cell(vms int, opts Options) spec.ScenarioV1 {
	s := spec.ScenarioV1{
		Scheduler: string(sched.KindVProbe),
		Topology:  "xeon-e5620",
		Seed:      opts.Seed,
		Scale:     opts.Scale,
		Horizon:   duration(opts.Horizon),
	}
	for i := 1; i <= vms; i++ {
		s.VMs = append(s.VMs, spec.VMV1{Name: fmt.Sprintf("VM%d", i), MemoryMB: 4 * 1024, VCPUs: 2,
			Memory: "stripe", Apps: named("soplex", 2)})
	}
	return s
}

// planTable3 reproduces §V-C1: the percentage of "overhead time" (PMU
// collection + periodical partitioning) in total execution time, for one to
// four VMs each running two soplex instances on two VCPUs.
func planTable3(opts Options) plan {
	opts = opts.normalized()
	const counts = 4
	cells := make([]Cell, counts)
	for i := range cells {
		cells[i] = Cell{Name: fmt.Sprintf("vms/%d", i+1), Spec: table3Cell(i+1, opts)}
	}
	return plan{cells: cells, assemble: func(outs []any) *Result {
		r := &Result{ID: "table3", Title: "vProbe overhead time (paper Table III)"}
		t := metrics.NewTable("Table III", "VMs", "overhead-time %")
		for idx, run := range as[ScenarioRun](outs) {
			frac := run.Overhead
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
