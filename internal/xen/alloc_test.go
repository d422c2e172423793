package xen_test

import (
	"testing"

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
	testQuantumSteadyStateZeroAlloc(t, false, false)
}

// TestQuantumSteadyStateZeroAllocTelemetry re-runs the guardrail with the
// full metric set attached and the sampler ticking: pre-bound handles and
// the preallocated ring must keep the instrumented loop allocation-free
// too.
func TestQuantumSteadyStateZeroAllocTelemetry(t *testing.T) {
	testQuantumSteadyStateZeroAlloc(t, true, false)
}

// TestQuantumSteadyStateZeroAllocSpans re-runs the guardrail with the span
// flight recorder attached: span recording hooks only lifecycle
// transitions, never the quantum loop, so the steady state must stay
// allocation-free with tracing on as well.
func TestQuantumSteadyStateZeroAllocSpans(t *testing.T) {
	testQuantumSteadyStateZeroAlloc(t, false, true)
}

func testQuantumSteadyStateZeroAlloc(t *testing.T, withTele, withSpans bool) {
	h := newSteadyStateHV(t, sched.KindCredit)
	if withTele {
		s := telemetry.NewSampler(telemetry.NewRegistry(), sim.Second)
		xen.AttachTelemetry(h, s)
		s.Start(h.Engine)
	}
	if withSpans {
		xen.AttachSpans(h, telemetry.NewTracer(1, 0))
	}
	// Warm up past boot, first-touch windows, and buffer growth.
	h.Run(2 * sim.Second)
	next := sim.Time(2 * sim.Second)
	allocs := testing.AllocsPerRun(20, func() {
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
}

// TestTracedQuantumAllocsPerEvent bounds the traced quantum loop: with a
// listener that discards every event, the only steady-state allocation is
// each event's Detail string.
func TestTracedQuantumAllocsPerEvent(t *testing.T) {
	h := newSteadyStateHV(t, sched.KindCredit)
	events := 0
	h.EventFn = func(xen.Event) { events++ }
	h.Run(2 * sim.Second)
	next := sim.Time(2 * sim.Second)
	const runs = 20
	events = 0
	allocs := testing.AllocsPerRun(runs, func() {
		next = next.Add(100 * sim.Millisecond)
		h.Engine.RunUntil(next)
	})
	// AllocsPerRun makes one unmeasured warm-up call before the runs.
	perRun := float64(events) / (runs + 1)
	if perRun < 10 {
		t.Fatalf("only %.1f events per 100 ms; the bound would be vacuous", perRun)
	}
	if perEvent := allocs / perRun; perEvent > 1.05 {
		t.Fatalf("traced quantum loop allocates %.2f times per event, want at most 1 (the Detail string)", perEvent)
	}
}
