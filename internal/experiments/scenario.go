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

// scenario is the paper's standard three-VM setup (§V-A1):
//
//	VM1 — 15 GB split across both nodes, 8 VCPUs, the measured workload
//	VM2 — 5 GB, 8 VCPUs, the interfering copy of the workload
//	VM3 — 1 GB, 8 VCPUs, eight hungry loops consuming spare CPU
type scenario struct {
	H   *xen.Hypervisor
	VM1 *xen.Domain
}

// standardScenario builds the standard setup on top under pol, seeded with
// seed, with apps1 in VM1 and apps2 in VM2 (attached to the first VCPUs of
// each domain; remaining VCPUs are guest-idle). Every app is attached
// through attachScaled.
func standardScenario(top *numa.Topology, pol xen.Policy, seed uint64, apps1, apps2 []*workload.Profile, scale float64) (*scenario, error) {
	cfg := xen.DefaultConfig()
	cfg.Seed = seed
	h := xen.New(top, pol, cfg)
	vm1, err := h.CreateDomain("VM1", 15*1024, 8, mem.PolicyStripe)
	if err != nil {
		return nil, err
	}
	vm2, err := h.CreateDomain("VM2", 5*1024, 8, mem.PolicyFill)
	if err != nil {
		return nil, err
	}
	vm3, err := h.CreateDomain("VM3", 1*1024, 8, mem.PolicyFill)
	if err != nil {
		return nil, err
	}
	if err := attachScaled(h, vm1, pad(apps1, len(vm1.VCPUs), workload.GuestIdle()), scale); err != nil {
		return nil, err
	}
	if err := attachScaled(h, vm2, pad(apps2, len(vm2.VCPUs), workload.GuestIdle()), scale); err != nil {
		return nil, err
	}
	if err := attachScaled(h, vm3, pad(nil, len(vm3.VCPUs), workload.Hungry()), scale); err != nil {
		return nil, err
	}
	return &scenario{H: h, VM1: vm1}, nil
}

// attachScaled attaches a clone of each app to d's VCPUs in order. A
// finite profile's TotalInstructions is multiplied by scale; endless ones
// (hungry and guest-idle loops, servers without a request target) keep
// theirs.
func attachScaled(h *xen.Hypervisor, d *xen.Domain, apps []*workload.Profile, scale float64) error {
	for i, app := range apps {
		p := app.Clone()
		if !p.Endless() {
			p.TotalInstructions *= scale
		}
		if _, err := h.AttachApp(d, i, p); err != nil {
			return err
		}
	}
	return nil
}

// pad appends fill until apps has n entries. Padding a VM's spare VCPUs
// with guest-idle housekeeping makes them behave like real guest-idle
// VCPUs (periodic timer/daemon bursts) instead of never existing; those
// bursts create the idle windows that drive work stealing on real systems.
func pad(apps []*workload.Profile, n int, fill *workload.Profile) []*workload.Profile {
	out := append([]*workload.Profile(nil), apps...)
	for len(out) < n {
		out = append(out, fill)
	}
	return out
}

// ScenarioRun is one standard-scenario simulation's measured output.
type ScenarioRun struct {
	// Runs are VM1's per-app runs.
	Runs []metrics.AppRun
	// End is the virtual time the simulation stopped at.
	End sim.Time
	// Overhead is the paper's Table III overhead-time fraction.
	Overhead float64
}

// run runs the scenario until VM1 finishes (batch workloads) or the
// horizon (servers). Cancelling ctx aborts the simulation promptly with
// the context's error.
func (s *scenario) run(ctx context.Context, horizon sim.Duration) (ScenarioRun, error) {
	s.H.WatchDomains(s.VM1)
	end, err := s.H.RunContext(ctx, horizon)
	if err != nil {
		return ScenarioRun{}, err
	}
	return ScenarioRun{
		Runs:     metrics.CollectDomain(s.VM1, end),
		End:      end,
		Overhead: s.H.OverheadFraction(),
	}, nil
}

// RunSchedulers runs apps1 in VM1 against apps2 in VM2 of the standard
// scenario on top, once per scheduler in opts.Schedulers and repeat in
// [0, opts.Repeats), and returns the runs by scheduler in repeat order.
// Repeat rep runs at seed opts.Seed+rep for every scheduler, so same-seed
// runs share the initial placement and per-seed normalization compares
// like with like. opts is used as given: callers normalize it first.
// label prefixes progress-event scenario names.
func RunSchedulers(ctx context.Context, top *numa.Topology, label string, apps1, apps2 []*workload.Profile, opts Options) (map[sched.Kind][]ScenarioRun, error) {
	cells, err := grid(ctx, opts.Workers, len(opts.Schedulers), opts.Repeats,
		func(ctx context.Context, v, rep int) (ScenarioRun, error) {
			k := opts.Schedulers[v]
			pol, err := sched.New(k)
			if err != nil {
				return ScenarioRun{}, fmt.Errorf("%s: %w", k, err)
			}
			sc, err := standardScenario(top, pol, opts.Seed+uint64(rep), apps1, apps2, opts.Scale)
			if err != nil {
				return ScenarioRun{}, fmt.Errorf("%s: %w", k, err)
			}
			run, err := sc.run(ctx, opts.Horizon)
			if err != nil {
				return ScenarioRun{}, fmt.Errorf("%s/seed%d: %w", k, rep, err)
			}
			opts.emitScenario(scenarioName(label, string(k), rep), run.End)
			return run, nil
		})
	if err != nil {
		return nil, err
	}
	out := make(map[sched.Kind][]ScenarioRun, len(opts.Schedulers))
	for v, k := range opts.Schedulers {
		out[k] = cells[v]
	}
	return out, nil
}

// grid runs fn for every cell of a variants × repeats grid through one
// harness.Map bounded by workers, and returns the cells grouped by
// variant, each group in repeat order. Cells are assembled by index, so
// the result never depends on completion order or worker count.
func grid[T any](ctx context.Context, workers, variants, repeats int, fn func(ctx context.Context, v, rep int) (T, error)) ([][]T, error) {
	n := variants * repeats
	flat, err := harness.Map(ctx, harness.Workers(workers, n), n,
		func(ctx context.Context, i int) (T, error) { return fn(ctx, i/repeats, i%repeats) })
	if err != nil {
		return nil, err
	}
	out := make([][]T, variants)
	for v := range out {
		out[v] = flat[v*repeats : (v+1)*repeats]
	}
	return out, nil
}

// means returns the column means of rows, each column summed in row order
// by sim.Mean.
func means(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make([]float64, len(rows[0]))
	col := make([]float64, len(rows))
	for j := range out {
		for i, row := range rows {
			col[i] = row[j]
		}
		out[j] = sim.Mean(col)
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

// replicate returns n clones of a profile.
func replicate(p *workload.Profile, n int) []*workload.Profile {
	out := make([]*workload.Profile, n)
	for i := range out {
		out[i] = p.Clone()
	}
	return out
}

// specWorkloads returns the Fig. 4 workload table: for each named
// workload, the instance lists for VM1 and VM2. mcf's footprint forces the
// paper's 6/2 split (§V-B1); mix runs one instance of each app.
func specWorkloads() []struct {
	Name         string
	Apps1, Apps2 []*workload.Profile
} {
	return []struct {
		Name         string
		Apps1, Apps2 []*workload.Profile
	}{
		{"soplex", replicate(workload.Soplex(), 4), replicate(workload.Soplex(), 4)},
		{"libquantum", replicate(workload.Libquantum(), 4), replicate(workload.Libquantum(), 4)},
		{"mcf", replicate(workload.MCF(), 6), replicate(workload.MCF(), 2)},
		{"milc", replicate(workload.Milc(), 4), replicate(workload.Milc(), 4)},
		{"mix", mixApps(), mixApps()},
	}
}

// mixApps is the Fig. 4 "mix" workload: one instance of each SPEC app.
func mixApps() []*workload.Profile {
	return []*workload.Profile{
		workload.Soplex(), workload.Libquantum(), workload.MCF(), workload.Milc(),
	}
}

// npbWorkloads returns the Fig. 5 table: each NPB app with four threads in
// both VM1 and VM2.
func npbWorkloads() []struct {
	Name string
	App  *workload.Profile
} {
	return []struct {
		Name string
		App  *workload.Profile
	}{
		{"bt", workload.BT()},
		{"cg", workload.CG()},
		{"lu", workload.LU()},
		{"mg", workload.MG()},
		{"sp", workload.SP()},
	}
}
