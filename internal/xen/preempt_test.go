package xen

import (
	"testing"

	"vprobe/internal/mem"
	"vprobe/internal/numa"
	"vprobe/internal/sim"
	"vprobe/internal/workload"
)

// gatePolicy is stealPolicy with a switch: while closed, PickNext
// dispatches nothing.
type gatePolicy struct {
	stealPolicy
	closed bool
}

func (g *gatePolicy) PickNext(h *Hypervisor, p *PCPU) *VCPU {
	if g.closed {
		return nil
	}
	return g.stealPolicy.PickNext(h, p)
}

// TestPreemptRekeysQuantumTimer checks the quantum timer across a
// preemption: when the PCPU dispatches again, its still-armed timer is
// re-keyed to the new quantum's end, and when the PCPU goes idle the
// timer is stopped, so no stale quantum end stays queued.
func TestPreemptRekeysQuantumTimer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GuestThreadMigrationMean = 0
	pol := &gatePolicy{}
	h := New(numa.XeonE5620(), pol, cfg)
	d, err := h.CreateDomain("vm", 1024, 1, mem.PolicyStripe)
	if err != nil {
		t.Fatal(err)
	}
	v, err := h.AttachApp(d, 0, workload.Hungry())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Pin(v, 0); err != nil {
		t.Fatal(err)
	}
	p := h.PCPUs[0]
	h.Run(sim.Millisecond)
	if p.Current != v || !p.quantum.Pending() {
		t.Fatalf("at 1 ms: PCPU 0 runs the VCPU %v, quantum timer armed %v; want both",
			p.Current == v, p.quantum.Pending())
	}
	pending := h.Engine.Pending()

	h.preempt(p) // v is requeued and dispatched again
	if p.Current != v || !p.quantum.Pending() {
		t.Fatalf("after a re-dispatching preempt: PCPU 0 runs the VCPU %v, quantum timer armed %v; want both",
			p.Current == v, p.quantum.Pending())
	}
	if got := h.Engine.Pending(); got != pending {
		t.Fatalf("re-dispatching preempt left %d events pending, want %d", got, pending)
	}
	// The re-keyed timer ends the new quantum on time: not a moment
	// before its end, and exactly then.
	start, end := p.flight.start, p.flight.start.Add(v.out.Used)
	if start != h.Engine.Now() {
		t.Fatalf("re-dispatched quantum started at %v, want now (%v)", start, h.Engine.Now())
	}
	h.Engine.RunUntil(end - 1)
	if p.flight.start != start {
		t.Fatalf("quantum started at %v ended before %v", start, end)
	}
	h.Engine.RunUntil(end)
	if p.flight.start != end {
		t.Fatalf("quantum started at %v did not end at %v", start, end)
	}
	pending = h.Engine.Pending()

	pol.closed = true
	h.preempt(p) // v is requeued, and PCPU 0 goes idle
	if p.Current != nil || p.quantum.Pending() {
		t.Fatalf("after an idling preempt: PCPU 0 busy %v, quantum timer armed %v; want neither",
			p.Current != nil, p.quantum.Pending())
	}
	if got := h.Engine.Pending(); got != pending-1 {
		t.Fatalf("idling preempt left %d events pending, want %d", got, pending-1)
	}
}

// BenchmarkPreemptCycle measures the BOOST preemption cycle that fills
// the server experiments' event stream. A hungry VCPU and a guest-idle
// VCPU share one pinned PCPU. Each op fires the guest-idle VCPU's wake
// timer, which preempts the hungry VCPU's quantum; the guest-idle VCPU
// runs its 200 µs burst and blocks; and the hungry VCPU is dispatched
// again. allocs/op must stay 0.
func BenchmarkPreemptCycle(b *testing.B) {
	cfg := DefaultConfig()
	cfg.GuestThreadMigrationMean = 0
	h := New(numa.XeonE5620(), stealPolicy{}, cfg)
	d, err := h.CreateDomain("vm", 1024, 2, mem.PolicyStripe)
	if err != nil {
		b.Fatal(err)
	}
	hungry, err := h.AttachApp(d, 0, workload.Hungry())
	if err != nil {
		b.Fatal(err)
	}
	idle, err := h.AttachApp(d, 1, workload.GuestIdle())
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []*VCPU{hungry, idle} {
		if err := h.Pin(v, 0); err != nil {
			b.Fatal(err)
		}
	}
	burst := sim.Duration(idle.App.BurstMicros)
	cycle := func() {
		now := h.Engine.Now()
		idle.wakeTimer.ArmAt(now) // re-keys the wake the last block armed
		h.Engine.RunUntil(now.Add(burst))
	}
	h.Run(sim.Second) // boot, first touch, buffer growth
	for range 100 {
		cycle()
	}
	if idle.State != StateBlocked || h.PCPUs[0].Current != hungry {
		b.Fatalf("after warm-up: guest-idle VCPU %v, hungry VCPU running: %v; want blocked, true",
			idle.State, h.PCPUs[0].Current == hungry)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		cycle()
	}
}
