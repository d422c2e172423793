package experiments

import (
	"context"

	"vprobe/internal/mem"
	"vprobe/internal/metrics"
	"vprobe/internal/numa"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
	"vprobe/internal/workload"
	"vprobe/internal/xen"
)

// soloSpec is one Fig. 3 cell: App alone in a VM with 4 GB of node-local
// memory and a single VCPU pinned to its local node, under vProbe. Its
// output is a solo.
type soloSpec struct {
	App     *workload.Profile
	Seed    uint64
	Scale   float64
	Horizon sim.Duration
}

// solo is the PMU-measured LLC behaviour of one app running alone.
type solo struct{ missRate, rpti float64 }

func (s soloSpec) run(ctx context.Context) (any, sim.Time, error) {
	cfg := xen.DefaultConfig()
	cfg.Seed = s.Seed
	h := xen.New(numa.XeonE5620(), sched.NewVProbe(), cfg)
	d, err := h.CreateDomain("VM1", 4*1024, 1, mem.PolicyLocal)
	if err != nil {
		return nil, 0, err
	}
	if err := attachScaled(h, d, []*workload.Profile{s.App}, s.Scale); err != nil {
		return nil, 0, err
	}
	v := d.VCPUs[0]
	// Pin to PCPU 0; PolicyLocal put the VM's memory on node 0, so the
	// VCPU is local to its pages, as in the paper.
	if err := h.Pin(v, 0); err != nil {
		return nil, 0, err
	}
	h.WatchDomains(d)
	end, err := h.RunContext(ctx, s.Horizon)
	if err != nil {
		return nil, 0, err
	}
	c := v.Counters
	var out solo
	if c.LLCRef > 0 {
		out.missRate = c.LLCMiss / c.LLCRef
	}
	if c.Instructions > 0 {
		out.rpti = c.LLCRef / c.Instructions * 1000
	}
	return out, end, nil
}

// cost is the app's run on its one PCPU.
func (s soloSpec) cost() float64 {
	return runSeconds(numa.XeonE5620(), []*workload.Profile{s.App}, s.Scale, s.Horizon)
}

// planFig3 reproduces the §IV-A calibration experiment: one VM with 4 GB
// of node-local memory and a single VCPU pinned to its local node runs
// each application alone; the measured LLC miss rate (Fig. 3a) and LLC
// references per thousand instructions (Fig. 3b) justify the (3, 20)
// classification bounds.
func planFig3(opts Options) plan {
	opts = opts.normalized()
	apps := workload.Fig3Apps()
	cells := make([]cell, len(apps))
	for i, app := range apps {
		cells[i] = cell{name: app.Name + "/solo", spec: soloSpec{
			App: app, Seed: opts.Seed, Scale: opts.Scale, Horizon: opts.Horizon,
		}}
	}
	return plan{cells: cells, assemble: func(outs []any) *Result {
		r := &Result{ID: "fig3", Title: "Solo LLC miss rate and RPTI (paper Fig. 3)"}
		t := metrics.NewTable("Fig. 3", "app", "miss-rate", "RPTI", "class(Eq.3)")
		bounds := map[string]float64{"low": 3, "high": 20}
		for i, s := range as[solo](outs) {
			app := apps[i]
			class := "LLC-FI"
			switch {
			case s.rpti < bounds["low"]:
				class = "LLC-FR"
			case s.rpti >= bounds["high"]:
				class = "LLC-T"
			}
			r.Set("missrate/solo", app.Name, s.missRate)
			r.Set("rpti/solo", app.Name, s.rpti)
			t.AddRow(app.Name, metrics.Pct(s.missRate), metrics.F(s.rpti), class)
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
