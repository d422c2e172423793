package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"vprobe/internal/core"
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

// policySpec is the data a cell builds its scheduler from: the kind plus
// the settings the experiments vary, always at their effective values, so
// two spellings of one policy (stock vProbe, and vProbe with an explicit
// 1 s period) are equal values. The settings apply to the vProbe family
// (vprobe, vcpu-p, lb); other kinds are built stock.
type policySpec struct {
	Kind         sched.Kind
	SamplePeriod sim.Duration
	Bounds       core.Bounds
	NoAffinity   bool
	Dynamic      bool
}

// stockPolicy reads kind's settings off the policy sched.New builds. An
// unknown kind yields a spec whose build reports the error.
func stockPolicy(kind sched.Kind) policySpec {
	ps := policySpec{Kind: kind}
	if pol, err := sched.New(kind); err == nil {
		if v, ok := pol.(*sched.VProbe); ok {
			ps.SamplePeriod = v.SamplePeriod
			ps.Bounds = v.Analyzer.Bounds
			ps.NoAffinity = v.DisableAffinity
			ps.Dynamic = v.Dynamic != nil
		}
	}
	return ps
}

// build constructs the policy the spec describes.
func (ps policySpec) build() (xen.Policy, error) {
	pol, err := sched.New(ps.Kind)
	if err != nil {
		return nil, err
	}
	if v, ok := pol.(*sched.VProbe); ok {
		v.SamplePeriod = ps.SamplePeriod
		v.Analyzer.Bounds = ps.Bounds
		v.DisableAffinity = ps.NoAffinity
		if ps.Dynamic {
			v.Dynamic = core.NewDynamicBounds()
		}
	}
	return pol, nil
}

// topology carries a machine model in a spec. It encodes as its full
// numa.Export description, so a cell's key sees every parameter the
// simulation reads.
type topology struct{ *numa.Topology }

// MarshalJSON implements json.Marshaler.
func (t topology) MarshalJSON() ([]byte, error) { return json.Marshal(numa.Export(t.Topology)) }

// standardSpec is a standard-scenario cell: VM1's and VM2's apps in the
// paper's three-VM setup on Topology under Policy, run until VM1 finishes
// or Horizon passes. Its output is a ScenarioRun.
type standardSpec struct {
	Topology topology
	Policy   policySpec
	// Migrate enables the §VI page-migration extension.
	Migrate  bool
	Seed     uint64
	Scale    float64
	Horizon  sim.Duration
	VM1, VM2 []*workload.Profile
}

// standardCell declares a standard-scenario cell at opts' scale and
// horizon.
func standardCell(name string, top *numa.Topology, pol policySpec, seed uint64, vm1, vm2 []*workload.Profile, opts Options) cell {
	return cell{name: name, spec: standardSpec{
		Topology: topology{top}, Policy: pol, Seed: seed,
		Scale: opts.Scale, Horizon: opts.Horizon, VM1: vm1, VM2: vm2,
	}}
}

func (s standardSpec) run(ctx context.Context) (any, sim.Time, error) {
	pol, err := s.Policy.build()
	if err != nil {
		return nil, 0, err
	}
	sc, err := standardScenario(s.Topology.Topology, pol, s.Seed, s.VM1, s.VM2, s.Scale)
	if err != nil {
		return nil, 0, err
	}
	if s.Migrate {
		sc.H.Migrator = mem.DefaultMigrator()
	}
	run, err := sc.run(ctx, s.Horizon)
	return run, run.End, err
}

// cost is VM1's expected run time on every PCPU of the machine.
func (s standardSpec) cost() float64 {
	return float64(s.Topology.NumCPUs()) * runSeconds(s.Topology.Topology, s.VM1, s.Scale, s.Horizon)
}

// runSeconds estimates how long apps keep a simulation on top going: the
// longest finite app's run at its base CPI, capped at the horizon, or the
// horizon itself when an app never ends.
func runSeconds(top *numa.Topology, apps []*workload.Profile, scale float64, horizon sim.Duration) float64 {
	var longest float64
	for _, p := range apps {
		if p.Endless() {
			return horizon.Seconds()
		}
		longest = math.Max(longest, p.TotalInstructions*scale*p.BaseCPI/(top.ClockGHz()*1e9))
	}
	return math.Min(longest, horizon.Seconds())
}

// RunSchedulers runs apps1 in VM1 against apps2 in VM2 of the standard
// scenario on top, once per scheduler in opts.Schedulers and repeat in
// [0, opts.Repeats), and returns the runs by scheduler in repeat order.
// Repeat rep runs at seed opts.Seed+rep for every scheduler, so same-seed
// runs share the initial placement and per-seed normalization compares
// like with like. opts is used as given: callers normalize it first.
// label prefixes progress-event scenario names. The runs go through the
// cell queue RunSuite uses.
func RunSchedulers(ctx context.Context, top *numa.Topology, label string, apps1, apps2 []*workload.Profile, opts Options) (map[sched.Kind][]ScenarioRun, error) {
	outs, err := runCells(ctx, opts, schedulerCells(top, label, apps1, apps2, opts))
	if err != nil {
		return nil, err
	}
	return byScheduler(as[ScenarioRun](outs), opts), nil
}

// schedulerCells declares RunSchedulers' cells, scheduler-major.
func schedulerCells(top *numa.Topology, label string, apps1, apps2 []*workload.Profile, opts Options) []cell {
	cells := make([]cell, 0, len(opts.Schedulers)*opts.Repeats)
	for _, k := range opts.Schedulers {
		for rep := 0; rep < opts.Repeats; rep++ {
			cells = append(cells, standardCell(scenarioName(label, string(k), rep),
				top, stockPolicy(k), opts.Seed+uint64(rep), apps1, apps2, opts))
		}
	}
	return cells
}

// byScheduler groups the outputs of schedulerCells by scheduler, each in
// repeat order.
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

// replicate returns n clones of a profile.
func replicate(p *workload.Profile, n int) []*workload.Profile {
	out := make([]*workload.Profile, n)
	for i := range out {
		out[i] = p.Clone()
	}
	return out
}

// workloadApps is one labelled workload of a figure: the instance lists
// for VM1 and VM2.
type workloadApps struct {
	Name         string
	Apps1, Apps2 []*workload.Profile
}

// specWorkloads returns the Fig. 4 workload table. mcf's footprint forces
// the paper's 6/2 split (§V-B1); mix runs one instance of each app.
func specWorkloads() []workloadApps {
	return []workloadApps{
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
func npbWorkloads() []workloadApps {
	var ws []workloadApps
	for _, app := range []*workload.Profile{workload.BT(), workload.CG(), workload.LU(), workload.MG(), workload.SP()} {
		ws = append(ws, workloadApps{app.Name, replicate(app, 4), replicate(app, 4)})
	}
	return ws
}
