package experiments

import (
	"context"
	"fmt"

	"vprobe/internal/harness"
	"vprobe/internal/mem"
	"vprobe/internal/metrics"
	"vprobe/internal/numa"
	"vprobe/internal/sched"
	"vprobe/internal/workload"
	"vprobe/internal/xen"
)

// runFig3 reproduces the §IV-A calibration experiment: one VM with 4 GB of
// node-local memory and a single VCPU pinned to its local node runs each
// application alone; the measured LLC miss rate (Fig. 3a) and LLC
// references per thousand instructions (Fig. 3b) justify the (3, 20)
// classification bounds.
func runFig3(ctx context.Context, opts Options) (*Result, error) {
	opts = opts.normalized()
	r := &Result{ID: "fig3", Title: "Solo LLC miss rate and RPTI (paper Fig. 3)"}
	t := metrics.NewTable("Fig. 3", "app", "miss-rate", "RPTI", "class(Eq.3)")

	bounds := map[string]float64{"low": 3, "high": 20}
	apps := workload.Fig3Apps()
	type solo struct{ missRate, rpti float64 }
	solos, err := harness.Map(ctx, harness.Workers(opts.Workers, len(apps)), len(apps),
		func(ctx context.Context, i int) (solo, error) {
			app := apps[i]
			cfg := xen.DefaultConfig()
			cfg.Seed = opts.Seed
			h := xen.New(numa.XeonE5620(), sched.NewVProbe(), cfg)
			d, err := h.CreateDomain("VM1", 4*1024, 1, mem.PolicyLocal)
			if err != nil {
				return solo{}, err
			}
			if err := attachScaled(h, d, []*workload.Profile{app}, opts.Scale); err != nil {
				return solo{}, err
			}
			v := d.VCPUs[0]
			// Pin to PCPU 0; PolicyLocal put the VM's memory on node 0,
			// so the VCPU is local to its pages, as in the paper.
			if err := h.Pin(v, 0); err != nil {
				return solo{}, err
			}
			h.WatchDomains(d)
			end, err := h.RunContext(ctx, opts.Horizon)
			if err != nil {
				return solo{}, fmt.Errorf("%s: %w", app.Name, err)
			}
			opts.emitScenario(app.Name+"/solo", end)

			c := v.Counters
			var s solo
			if c.LLCRef > 0 {
				s.missRate = c.LLCMiss / c.LLCRef
			}
			if c.Instructions > 0 {
				s.rpti = c.LLCRef / c.Instructions * 1000
			}
			return s, nil
		})
	if err != nil {
		return nil, err
	}
	for i, app := range apps {
		s := solos[i]
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
	return r, nil
}

func init() {
	register(&Experiment{
		ID:    "fig3",
		Title: "Bound calibration (solo miss rate and RPTI)",
		Paper: "Fig. 3: RPTI separates LLC-FR (<3), LLC-FI (3..20), LLC-T (>=20)",
		run:   runFig3,
	})
}
