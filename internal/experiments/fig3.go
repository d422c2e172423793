package experiments

import (
	"vprobe/internal/metrics"
	"vprobe/internal/sched"
	"vprobe/internal/spec"
	"vprobe/internal/workload"
)

// solo is one Fig. 3 cell: app alone in a VM with 4 GB of node-local
// memory and a single VCPU, pinned to PCPU 0 of the node holding that
// memory, under vProbe.
func solo(app string, opts Options) spec.ScenarioV1 {
	return spec.ScenarioV1{
		Scheduler: string(sched.KindVProbe),
		Topology:  "xeon-e5620",
		Seed:      opts.Seed,
		Scale:     opts.Scale,
		Horizon:   duration(opts.Horizon),
		VMs: []spec.VMV1{{Name: "VM1", MemoryMB: 4 * 1024, VCPUs: 1, Memory: "local",
			Apps: []spec.AppV1{{Name: app}}, Pin: []int{0}}},
	}
}

// planFig3 reproduces the §IV-A calibration experiment: one VM with 4 GB
// of node-local memory and a single VCPU pinned to its local node runs
// each application alone; the measured LLC miss rate (Fig. 3a) and LLC
// references per thousand instructions (Fig. 3b) justify the (3, 20)
// classification bounds.
func planFig3(opts Options) plan {
	opts = opts.normalized()
	apps := workload.Fig3Apps()
	cells := make([]Cell, len(apps))
	for i, app := range apps {
		cells[i] = Cell{Name: app.Name + "/solo", Spec: solo(app.Name, opts)}
	}
	return plan{cells: cells, assemble: func(outs []any) *Result {
		r := &Result{ID: "fig3", Title: "Solo LLC miss rate and RPTI (paper Fig. 3)"}
		t := metrics.NewTable("Fig. 3", "app", "miss-rate", "RPTI", "class(Eq.3)")
		bounds := map[string]float64{"low": 3, "high": 20}
		for i, run := range as[ScenarioRun](outs) {
			app, c := apps[i], run.Runs[0]
			var missRate, rpti float64
			if c.LLCRef > 0 {
				missRate = c.Total / c.LLCRef
			}
			if c.Instructions > 0 {
				rpti = c.LLCRef / c.Instructions * 1000
			}
			class := "LLC-FI"
			switch {
			case rpti < bounds["low"]:
				class = "LLC-FR"
			case rpti >= bounds["high"]:
				class = "LLC-T"
			}
			r.Set("missrate/solo", app.Name, missRate)
			r.Set("rpti/solo", app.Name, rpti)
			t.AddRow(app.Name, metrics.Pct(missRate), metrics.F(rpti), class)
		}
		t.AddNote("paper RPTI: povray 0.48, ep 2.01, lu 15.38, mg 16.33, milc 21.68, libquantum 22.41")
		t.AddNote("bounds chosen: low=3, high=20")
		r.Tables = append(r.Tables, t)
		return r
	}}
}

func init() {
	register(&Experiment{
		ID:    "fig3",
		Title: "Bound calibration (solo miss rate and RPTI)",
		Paper: "Fig. 3: RPTI separates LLC-FR (<3), LLC-FI (3..20), LLC-T (>=20)",
		plan:  planFig3,
	})
}
