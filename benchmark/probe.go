package main

import (
	"context"
	"fmt"
	"time"

	"vprobe"
	"vprobe/internal/xen"
)

// probeRow is one row of a paper figure rebuilt as the paper's standard
// three-VM scenario (§V-A1): VM1 holds the measured apps on memory
// striped over both nodes, VM2 the interfering copy, VM3 eight hungry
// loops.
type probeRow struct {
	name     string
	vm1, vm2 []vprobe.AppSpec
}

// probeConfig is the per-layer probe of a paper workload: every row under
// every scheduler, each run for horizon of simulated time.
type probeConfig struct {
	rows    []probeRow
	horizon time.Duration
}

func apps(n int, app vprobe.AppSpec) []vprobe.AppSpec {
	out := make([]vprobe.AppSpec, n)
	for i := range out {
		out[i] = app
	}
	return out
}

func (row probeRow) spec(kind vprobe.Scheduler, seed uint64, horizon time.Duration) vprobe.ScenarioSpec {
	return vprobe.ScenarioSpec{
		Version:   "v1",
		Scheduler: string(kind),
		Seed:      seed,
		Horizon:   vprobe.SpecDuration(horizon),
		VMs: []vprobe.VMSpec{
			{Name: "VM1", MemoryMB: 15 * 1024, VCPUs: 8, Memory: "stripe", FillGuestIdle: true, Apps: row.vm1},
			{Name: "VM2", MemoryMB: 5 * 1024, VCPUs: 8, Memory: "fill", FillGuestIdle: true, Apps: row.vm2},
			{Name: "VM3", MemoryMB: 1024, VCPUs: 8, Memory: "fill", Apps: apps(8, vprobe.AppSpec{Name: "hungry"})},
		},
	}
}

// compileProbe builds every probe scenario without running it: the
// set-up a simulation pays before its first event.
func compileProbe(cfg probeConfig, seed uint64) error {
	for _, row := range cfg.rows {
		for _, kind := range vprobe.Schedulers() {
			if _, _, err := vprobe.CompileScenario(row.spec(kind, seed, cfg.horizon), vprobe.CompileOptions{}); err != nil {
				return fmt.Errorf("probe %s/%s: %w", row.name, kind, err)
			}
		}
	}
	return nil
}

// probeStats aggregates the probe over all rows and schedulers. Counts
// come from the plain runs; call timings from the timed reruns.
type probeStats struct {
	events, dispatches                      float64
	stealsLocal, stealsRemote, reassignment float64
	plainWall, timedWall                    time.Duration
	pick, tick, period                      callTimer
	// balanceAttempts counts PickNext calls on a PCPU whose queue head is
	// not UNDER: the calls that fall into work stealing.
	balanceAttempts uint64
}

// timedPolicy wraps a scheduling policy and times the calls the
// hypervisor makes into it. It changes no decision.
type timedPolicy struct {
	xen.Policy
	st *probeStats
}

func (t *timedPolicy) PickNext(h *xen.Hypervisor, p *xen.PCPU) *xen.VCPU {
	if !p.HeadIsRunnableUnder() {
		t.st.balanceAttempts++
	}
	t0, timed := t.st.pick.start()
	v := t.Policy.PickNext(h, p)
	if timed {
		t.st.pick.stop(t0)
	}
	return v
}

func (t *timedPolicy) OnTick(h *xen.Hypervisor, v *xen.VCPU) {
	t0, timed := t.st.tick.start()
	t.Policy.OnTick(h, v)
	if timed {
		t.st.tick.stop(t0)
	}
}

func (t *timedPolicy) OnPeriod(h *xen.Hypervisor) {
	t0, _ := t.st.period.start()
	t.Policy.OnPeriod(h)
	t.st.period.stop(t0)
}

// runProbe runs every row under every scheduler twice, plainly and with
// the policy timed, and reports a failed check when the two reports
// differ.
func runProbe(ctx context.Context, cfg probeConfig, seed uint64, tr *tracer, parent int, res *result) (*probeStats, error) {
	st := &probeStats{pick: callTimer{every: hotSample}, tick: callTimer{every: hotSample}}
	root := tr.begin(parent, "probe")
	defer tr.end(root)
	for _, row := range cfg.rows {
		for _, kind := range vprobe.Schedulers() {
			sp := row.spec(kind, seed, cfg.horizon)
			plain, h, wall, err := runProbeScenario(ctx, sp, nil)
			if err != nil {
				return nil, fmt.Errorf("probe %s/%s: %w", row.name, kind, err)
			}
			st.plainWall += wall
			st.events += float64(h.Engine.Fired())
			st.dispatches += h.Tele.Dispatches.Value()
			st.stealsLocal += h.Tele.StealsLocal.Value()
			st.stealsRemote += h.Tele.StealsRemote.Value()
			st.reassignment += h.Tele.Reassignments.Value()

			start := now()
			timed, _, wall, err := runProbeScenario(ctx, sp, st)
			if err != nil {
				return nil, fmt.Errorf("probe %s/%s timed: %w", row.name, kind, err)
			}
			st.timedWall += wall
			tr.add(root, "probe "+row.name+" "+string(kind), start, now(),
				"events", fmt.Sprint(h.Engine.Fired()), "dispatches", fmt.Sprint(h.Tele.Dispatches.Value()))
			if timed != plain {
				res.checkFailed("probe %s/%s: timed run's report differs from the plain run's", row.name, kind)
			}
		}
	}
	return st, nil
}

// runProbeScenario compiles and runs one probe scenario with telemetry
// attached, wrapping the policy in timers when st is non-nil. It returns
// the rendered report, the hypervisor, and the run's wall time.
func runProbeScenario(ctx context.Context, sp vprobe.ScenarioSpec, st *probeStats) (string, *xen.Hypervisor, time.Duration, error) {
	tele := vprobe.NewTelemetry(vprobe.TelemetryOptions{})
	sim, horizon, err := vprobe.CompileScenario(sp, vprobe.CompileOptions{Telemetry: tele})
	if err != nil {
		return "", nil, 0, err
	}
	h := sim.Hypervisor()
	if st != nil {
		h.Policy = &timedPolicy{Policy: h.Policy, st: st}
	}
	start := now()
	rep, err := sim.RunContext(ctx, horizon)
	wall := now().Sub(start)
	if err != nil {
		return "", nil, 0, err
	}
	return rep.String(), h, wall, nil
}

// set stores the probe's per-layer metrics.
func (st *probeStats) set(v map[string]float64) {
	v["sim.events"] = st.events
	v["sim.ns_per_event"] = ratio(float64(st.plainWall.Nanoseconds()), st.events)
	v["xen.dispatches"] = st.dispatches
	v["xen.ns_per_dispatch"] = ratio(float64(st.plainWall.Nanoseconds()), st.dispatches)
	inPolicy := st.pick.estimate() + st.tick.estimate() + st.period.estimate()
	v["xen.self_share"] = ratio(float64((st.timedWall - inPolicy).Nanoseconds()), float64(st.timedWall.Nanoseconds()))
	v["sched.pick_next.calls"] = float64(st.pick.calls)
	v["sched.pick_next.ns_per_call"] = st.pick.nsPerCall()
	v["sched.pick_next.p99_ns"] = st.pick.sk.quantile(0.99)
	v["sched.steals.local"] = st.stealsLocal
	v["sched.steals.remote"] = st.stealsRemote
	v["sched.steal_yield"] = ratio(st.stealsLocal+st.stealsRemote, float64(st.balanceAttempts))
	v["sched.on_tick.calls"] = float64(st.tick.calls)
	v["sched.on_tick.ns_per_call"] = st.tick.nsPerCall()
	v["sched.on_period.calls"] = float64(st.period.calls)
	v["sched.on_period.us_per_call"] = st.period.nsPerCall() / 1e3
	v["core.reassignments"] = st.reassignment
}
