package xen_test

import (
	"testing"

	"vprobe"
	"vprobe/internal/core"
	"vprobe/internal/mem"
	"vprobe/internal/numa"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
	"vprobe/internal/telemetry"
	"vprobe/internal/workload"
	"vprobe/internal/xen"
)

// newSteadyStateHV builds an overcommitted host (12 runnable VCPUs on 8
// PCPUs) that exercises the whole quantum loop forever: dispatch, quantum
// end, credit ticks and accounting, blocking and BOOST wakeups, preemption,
// and idle-PCPU stealing. All workloads are endless so the steady state
// never drains, and guest-thread re-placement is disabled because it is a
// rare housekeeping event (6 s mean), not part of the quantum loop.
func newSteadyStateHV(t testing.TB, kind sched.Kind) *xen.Hypervisor {
	t.Helper()
	cfg := xen.DefaultConfig()
	cfg.GuestThreadMigrationMean = 0
	h := xen.New(numa.XeonE5620(), sched.MustNew(kind), cfg)
	vm, err := h.CreateDomain("vm", 4096, 12, mem.PolicyStripe)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := h.AttachApp(vm, i, workload.Hungry()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 8; i < 12; i++ {
		if _, err := h.AttachApp(vm, i, workload.GuestIdle()); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// TestQuantumSteadyStateZeroAlloc pins the whole quantum hot path —
// sim event pool, perf.ExecuteInto, the PCPU flight/quantum-timer reuse,
// the wake timers, and the steal scratch buffers — at zero allocations per
// simulated interval once buffers have grown to steady state (tracing
// off). Any regression that reintroduces a per-quantum allocation fails
// this test rather than quietly degrading throughput.
func TestQuantumSteadyStateZeroAlloc(t *testing.T) {
	testQuantumSteadyStateZeroAlloc(t, newSteadyStateHV(t, sched.KindCredit), nil)
}

// TestQuantumSteadyStateZeroAllocTelemetry re-runs the guardrail with the
// full metric set attached and the sampler ticking: pre-bound handles and
// the preallocated ring must keep the instrumented loop allocation-free
// too.
func TestQuantumSteadyStateZeroAllocTelemetry(t *testing.T) {
	testQuantumSteadyStateZeroAlloc(t, newSteadyStateHV(t, sched.KindCredit), func(h *xen.Hypervisor) func() int {
		s := telemetry.NewSampler(telemetry.NewRegistry(), sim.Second)
		xen.AttachTelemetry(h, s)
		s.Start(h.Engine)
		return nil
	})
}

// TestQuantumSteadyStateZeroAllocSpans re-runs the guardrail with the span
// flight recorder attached: span recording hooks only lifecycle
// transitions, never the quantum loop, so the steady state must stay
// allocation-free with tracing on as well.
func TestQuantumSteadyStateZeroAllocSpans(t *testing.T) {
	testQuantumSteadyStateZeroAlloc(t, newSteadyStateHV(t, sched.KindCredit), func(h *xen.Hypervisor) func() int {
		xen.AttachSpans(h, telemetry.NewTracer(1, 0))
		return nil
	})
}

// TestQuantumSteadyStateZeroAllocEventLog re-runs the guardrail recording
// every event into a vprobe.EventLog, wired the way a Simulator wires it:
// a dispatch or block is stored as typed fields, so the traced loop
// allocates nothing per event. The log still adds a byte chunk when the
// last is full, each twice the size of the one before up to 64 KB; the
// warm-up grows it to about as many records as the measured window adds,
// so the window's one chunk at most rounds away in AllocsPerRun's
// per-run count.
func TestQuantumSteadyStateZeroAllocEventLog(t *testing.T) {
	testQuantumSteadyStateZeroAlloc(t, newSteadyStateHV(t, sched.KindCredit), func(h *xen.Hypervisor) func() int {
		log := new(vprobe.EventLog)
		s, _, err := vprobe.CompileScenario(vprobe.ScenarioSpec{
			VMs: []vprobe.VMSpec{{Name: "vm", MemoryMB: 1024, VCPUs: 1}},
		}, vprobe.CompileOptions{Events: log})
		if err != nil {
			t.Fatal(err)
		}
		h.EventFn = s.Hypervisor().EventFn
		return log.Len
	})
}

// TestTracedQuantumAllocsPerEvent re-runs the guardrail with a listener
// that discards every event: dispatch and block events carry typed
// fields, not a rendered Detail string, so tracing adds no allocation.
func TestTracedQuantumAllocsPerEvent(t *testing.T) {
	testQuantumSteadyStateZeroAlloc(t, newSteadyStateHV(t, sched.KindCredit), func(h *xen.Hypervisor) func() int {
		events := 0
		h.EventFn = func(xen.Event) { events++ }
		return func() int { return events }
	})
}

// testQuantumSteadyStateZeroAlloc runs the unstarted host h with attach's
// instrumentation (none when attach is nil) and fails on any allocation
// in the measured window. An attach that returns an event counter also
// fails the run when too few events flowed for the result to mean
// anything.
func testQuantumSteadyStateZeroAlloc(t *testing.T, h *xen.Hypervisor, attach func(h *xen.Hypervisor) (events func() int)) {
	var events func() int
	if attach != nil {
		events = attach(h)
	}
	// Warm up past boot, first-touch windows, and buffer growth.
	h.Run(2 * sim.Second)
	next := sim.Time(2 * sim.Second)
	const runs = 20
	before := 0
	if events != nil {
		before = events()
	}
	allocs := testing.AllocsPerRun(runs, func() {
		next = next.Add(100 * sim.Millisecond)
		h.Engine.RunUntil(next)
	})
	if allocs != 0 {
		t.Fatalf("steady-state quantum loop allocates %.1f times per 100 ms "+
			"of simulation, want 0", allocs)
	}
	if h.TotalBusyTime() == 0 {
		t.Fatal("simulation did no work; zero-alloc result is vacuous")
	}
	// AllocsPerRun makes one unmeasured warm-up call before the runs.
	if events != nil {
		if perRun := float64(events()-before) / (runs + 1); perRun < 10 {
			t.Fatalf("only %.1f events per 100 ms; the zero-alloc result is vacuous", perRun)
		}
	}
}

// TestIdleKickSteadyStateZeroAlloc pins the idle-PCPU path at zero
// allocations per simulated interval: a lightly loaded host (one CPU
// burner and three housekeeping VCPUs on eight PCPUs) whose wakeups kick
// idle PCPUs at every burst, through both the empty-host guard and the
// batches that steal. The kick batch queue must reuse its storage.
func TestIdleKickSteadyStateZeroAlloc(t *testing.T) {
	cfg := xen.DefaultConfig()
	cfg.GuestThreadMigrationMean = 0
	h := xen.New(numa.XeonE5620(), sched.MustNew(sched.KindCredit), cfg)
	vm, err := h.CreateDomain("vm", 2048, 4, mem.PolicyStripe)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AttachApp(vm, 0, workload.Hungry()); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if _, err := h.AttachApp(vm, i, workload.GuestIdle()); err != nil {
			t.Fatal(err)
		}
	}
	testQuantumSteadyStateZeroAlloc(t, h, func(h *xen.Hypervisor) func() int {
		return func() int { return int(h.Engine.Fired()) }
	})
	var idle sim.Duration
	for _, p := range h.PCPUs {
		idle += p.IdleTime
	}
	if idle == 0 {
		t.Fatal("no PCPU was ever idle; the idle-kick result is vacuous")
	}
}

// TestPeriodSteadyStateZeroAlloc pins vProbe's 1 Hz period pass at zero
// allocations once its buffers have grown: PMU sampling of every VCPU
// (the samplers' delta and window buffers), the dynamic bounds' pressure
// vector and window, Algorithm 1 on its scratch, and the partition's
// application with its reused mark slice. Twelve endless memory-intensive
// VCPUs on eight PCPUs keep Algorithm 1 assigning every period; each
// measured run simulates one second, so it holds one period pass and the
// quantum loop around it. The warm-up fills the dynamic bounds' sample
// window (256 samples, twelve a period) before anything is measured.
func TestPeriodSteadyStateZeroAlloc(t *testing.T) {
	for _, dynamic := range []bool{false, true} {
		pol := sched.NewVProbe()
		if dynamic {
			pol.Dynamic = core.NewDynamicBounds()
		}
		t.Run(pol.Name(), func(t *testing.T) {
			cfg := xen.DefaultConfig()
			cfg.GuestThreadMigrationMean = 0
			h := xen.New(numa.XeonE5620(), pol, cfg)
			vm, err := h.CreateDomain("vm", 8192, 12, mem.PolicyStripe)
			if err != nil {
				t.Fatal(err)
			}
			builders := []func() *workload.Profile{workload.Soplex, workload.Libquantum, workload.Milc}
			for i := range 12 {
				app := builders[i%len(builders)]()
				app.TotalInstructions = 1e18 // endless: the steady state never drains
				if _, err := h.AttachApp(vm, i, app); err != nil {
					t.Fatal(err)
				}
			}
			h.Run(30 * sim.Second)
			next := sim.Time(30 * sim.Second)
			allocs := testing.AllocsPerRun(5, func() {
				next = next.Add(sim.Second)
				h.Engine.RunUntil(next)
			})
			if allocs != 0 {
				t.Fatalf("steady-state period pass allocates %.1f times per simulated second, want 0", allocs)
			}
			assigned := 0
			for _, v := range vm.VCPUs {
				if v.AssignedNode != numa.NoNode {
					assigned++
				}
			}
			if assigned == 0 {
				t.Fatal("Algorithm 1 assigned no VCPU; the zero-alloc result is vacuous")
			}
		})
	}
}
