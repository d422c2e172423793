package experiments

import (
	"context"
	"fmt"
	"time"

	"vprobe/internal/metrics"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
	"vprobe/internal/spec"
)

// standard is a cell of the paper's standard three-VM setup (§V-A1) on
// topology under kind, seeded with seed and run at opts' scale and
// horizon until VM1 finishes:
//
//	VM1 — 15 GB split across both nodes, 8 VCPUs, the measured workload
//	VM2 — 5 GB, 8 VCPUs, the interfering copy of the workload
//	VM3 — 1 GB, 8 VCPUs, eight hungry loops consuming spare CPU
//
// VM1's and VM2's spare VCPUs run guest-idle housekeeping instead of never
// existing: its periodic bursts create the idle windows that drive work
// stealing on real systems.
func standard(topology string, kind sched.Kind, seed uint64, apps1, apps2 []spec.AppV1, opts Options) spec.ScenarioV1 {
	return spec.ScenarioV1{
		Scheduler: string(kind),
		Topology:  topology,
		Seed:      seed,
		Scale:     opts.Scale,
		Horizon:   duration(opts.Horizon),
		VMs: []spec.VMV1{
			{Name: "VM1", MemoryMB: 15 * 1024, VCPUs: 8, Memory: "stripe", FillGuestIdle: true, Apps: apps1},
			{Name: "VM2", MemoryMB: 5 * 1024, VCPUs: 8, Memory: "fill", FillGuestIdle: true, Apps: apps2},
			{Name: "VM3", MemoryMB: 1024, VCPUs: 8, Memory: "fill", Apps: named("hungry", 8)},
		},
		Watch: []string{"VM1"},
	}
}

// duration converts a simulated duration to its spec form.
func duration(d sim.Duration) spec.Duration {
	return spec.Duration(time.Duration(d) * time.Microsecond)
}

// ScenarioRun is one scenario cell's measured output.
type ScenarioRun struct {
	// Runs are the watched VMs' per-app runs, in watch order.
	Runs []metrics.AppRun
	// End is the virtual time the simulation stopped at.
	End sim.Time
	// Overhead is the paper's Table III overhead-time fraction.
	Overhead float64
}

// runScenario lowers s and runs it until its watched VMs finish or its
// horizon passes. Cancelling ctx aborts the simulation promptly with the
// context's error.
func runScenario(ctx context.Context, s spec.ScenarioV1) (ScenarioRun, error) {
	h, err := s.Hypervisor()
	if err != nil {
		return ScenarioRun{}, err
	}
	end, err := h.RunContext(ctx, s.Normalize().Horizon.Sim())
	if err != nil {
		return ScenarioRun{}, err
	}
	run := ScenarioRun{End: end, Overhead: h.OverheadFraction()}
	for _, d := range h.Watched() {
		run.Runs = append(run.Runs, metrics.CollectDomain(d, end)...)
	}
	return run, nil
}

// RunPaired runs base once per scheduler in opts.Schedulers and seed in
// s … s+opts.Repeats−1, where s is base's normalized seed, and returns
// the runs by scheduler in seed order. Every scheduler runs every seed,
// so same-seed runs share the initial placement and Pair compares like
// with like. opts is used as given, and base's own scheduler is replaced.
// The runs go through the cell queue RunSuite uses.
func RunPaired(ctx context.Context, base spec.ScenarioV1, opts Options) (map[sched.Kind][]ScenarioRun, error) {
	outs, err := runCells(ctx, opts, schedulerCells(base, "", opts))
	if err != nil {
		return nil, err
	}
	return byScheduler(as[ScenarioRun](outs), opts), nil
}

// schedulerCells declares RunPaired's cells, scheduler-major. label
// prefixes their progress-event names.
func schedulerCells(base spec.ScenarioV1, label string, opts Options) []Cell {
	seed := base.Normalize().Seed
	cells := make([]Cell, 0, len(opts.Schedulers)*opts.Repeats)
	for _, k := range opts.Schedulers {
		for rep := 0; rep < opts.Repeats; rep++ {
			s := base
			s.Scheduler, s.Seed = string(k), seed+uint64(rep)
			cells = append(cells, Cell{Name: scenarioName(label, string(k), rep), Spec: s})
		}
	}
	return cells
}

// byScheduler groups the outputs of schedulerCells by scheduler, each in
// seed order.
func byScheduler(runs []ScenarioRun, opts Options) map[sched.Kind][]ScenarioRun {
	out := make(map[sched.Kind][]ScenarioRun, len(opts.Schedulers))
	for v, k := range opts.Schedulers {
		out[k] = runs[v*opts.Repeats : (v+1)*opts.Repeats]
	}
	return out
}

// scenarioName builds a progress-event label like "soplex/vprobe/seed0".
func scenarioName(label, kind string, repeat int) string {
	if label == "" {
		return fmt.Sprintf("%s/seed%d", kind, repeat)
	}
	return fmt.Sprintf("%s/%s/seed%d", label, kind, repeat)
}

// replicate returns n copies of an app.
func replicate(app spec.AppV1, n int) []spec.AppV1 {
	out := make([]spec.AppV1, n)
	for i := range out {
		out[i] = app
	}
	return out
}

// named returns n instances of the catalog app name.
func named(name string, n int) []spec.AppV1 { return replicate(spec.AppV1{Name: name}, n) }

// workloadApps is one labelled workload of a figure: the instance lists
// for VM1 and VM2.
type workloadApps struct {
	Name         string
	Apps1, Apps2 []spec.AppV1
}

// specWorkloads returns the Fig. 4 workload table. mcf's footprint forces
// the paper's 6/2 split (§V-B1); mix runs one instance of each app.
func specWorkloads() []workloadApps {
	return []workloadApps{
		{"soplex", named("soplex", 4), named("soplex", 4)},
		{"libquantum", named("libquantum", 4), named("libquantum", 4)},
		{"mcf", named("mcf", 6), named("mcf", 2)},
		{"milc", named("milc", 4), named("milc", 4)},
		{"mix", mixApps(), mixApps()},
	}
}

// mixApps is the Fig. 4 "mix" workload: one instance of each SPEC app.
func mixApps() []spec.AppV1 {
	return []spec.AppV1{{Name: "soplex"}, {Name: "libquantum"}, {Name: "mcf"}, {Name: "milc"}}
}

// npbWorkloads returns the Fig. 5 table: each NPB app with four threads in
// both VM1 and VM2.
func npbWorkloads() []workloadApps {
	var ws []workloadApps
	for _, app := range []string{"bt", "cg", "lu", "mg", "sp"} {
		ws = append(ws, workloadApps{app, named(app, 4), named(app, 4)})
	}
	return ws
}
