package xen

import (
	"slices"
	"testing"

	"vprobe/internal/mem"
	"vprobe/internal/numa"
	"vprobe/internal/sim"
	"vprobe/internal/workload"
)

// recordPolicy never dispatches and records every PCPU PickNext is asked
// about, in call order.
type recordPolicy struct {
	idlePolicy
	picks []numa.CPUID
}

func (r *recordPolicy) PickNext(_ *Hypervisor, p *PCPU) *VCPU {
	r.picks = append(r.picks, p.ID)
	return nil
}

// stealPolicy runs its own queue's head, or else steals anything.
type stealPolicy struct{ idlePolicy }

func (stealPolicy) PickNext(h *Hypervisor, p *PCPU) *VCPU {
	if v := h.NextLocal(p); v != nil {
		return v
	}
	return h.CreditSteal(p, true)
}

// newKickHV starts an eight-PCPU host whose one domain has no apps, so
// the run queues stay whatever the test puts in them, and runs it past
// the boot kick to 1 ms. Ticks start at 10 ms, so until then the engine
// fires only the kicks a test asks for.
func newKickHV(t *testing.T) (*Hypervisor, *recordPolicy, *Domain) {
	t.Helper()
	rec := &recordPolicy{}
	cfg := DefaultConfig()
	cfg.GuestThreadMigrationMean = 0
	h := New(numa.XeonE5620(), rec, cfg)
	d, err := h.CreateDomain("vm", 1024, 2, mem.PolicyStripe)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	h.Engine.RunUntil(sim.Time(sim.Millisecond))
	return h, rec, d
}

// runKickEvents fires the pending kicks at the current instant and
// returns how many events fired.
func runKickEvents(h *Hypervisor) uint64 {
	before := h.Engine.Fired()
	h.Engine.RunUntil(h.Engine.Now())
	return h.Engine.Fired() - before
}

// TestBootIsOneKickBatch pins Start's first dispatch to one kick event
// for all PCPUs. With nothing queued it goes through the empty-host
// guard: no PickNext call, and every PCPU idle since time zero.
func TestBootIsOneKickBatch(t *testing.T) {
	h, rec, _ := newKickHV(t)
	if got := h.Engine.Fired(); got != 1 {
		t.Fatalf("boot fired %d events, want 1", got)
	}
	if len(rec.picks) != 0 {
		t.Fatalf("boot on an empty host called PickNext for %v", rec.picks)
	}
	for _, p := range h.PCPUs {
		if !p.idle || p.IdleSince != 0 {
			t.Fatalf("pcpu %d after boot: idle=%v since %v, want idle since 0", p.ID, p.idle, p.IdleSince)
		}
	}
}

// TestKickBatchesFireInOrder checks that each kickIdle call is one event,
// that batches of one instant fire in call order, and that a batch holds
// exactly the PCPUs idle at its call: a PCPU busy then and idle at fire
// time is not kicked by it, and one idle then and busy at fire time is
// skipped.
func TestKickBatchesFireInOrder(t *testing.T) {
	h, rec, d := newKickHV(t)
	h.PCPUs[0].Enqueue(d.VCPUs[0]) // a queued VCPU keeps the guard off
	busy := d.VCPUs[1]

	pending := h.Engine.Pending()
	h.PCPUs[3].Current = busy
	h.kickIdle() // 0 1 2 4 5 6 7
	h.PCPUs[3].Current = nil
	h.PCPUs[5].Current = busy
	h.kickIdle() // 0 1 2 3 4 6 7
	h.PCPUs[5].Current = nil
	if got := h.Engine.Pending() - pending; got != 2 {
		t.Fatalf("two kickIdle calls queued %d events, want 2", got)
	}
	if got := runKickEvents(h); got != 2 {
		t.Fatalf("fired %d events, want 2", got)
	}
	want := []numa.CPUID{0, 1, 2, 4, 5, 6, 7, 0, 1, 2, 3, 4, 6, 7}
	if !slices.Equal(rec.picks, want) {
		t.Fatalf("PickNext order %v, want %v", rec.picks, want)
	}

	rec.picks = nil
	h.kickIdle()
	h.PCPUs[2].Current = busy
	runKickEvents(h)
	h.PCPUs[2].Current = nil
	if want := []numa.CPUID{0, 1, 3, 4, 5, 6, 7}; !slices.Equal(rec.picks, want) {
		t.Fatalf("PickNext after PCPU 2 went busy: %v, want %v", rec.picks, want)
	}
	if len(h.kicks) != 0 || h.kickNext != 0 {
		t.Fatalf("drained kick queue not reset: %d entries, next %d", len(h.kicks), h.kickNext)
	}
}

// TestEmptyHostGuardMatchesSchedule runs one kick batch on a host with
// every run queue empty through the guard, and the same batch on a twin
// through schedule itself. The guard must call no PickNext and leave
// every PCPU's idle flag, IdleSince and IdleTime as schedule does: a
// PCPU idle since earlier keeps its start, one just off a quantum starts
// now, and one busy again is left alone.
func TestEmptyHostGuardMatchesSchedule(t *testing.T) {
	guard, grec, gd := newKickHV(t)
	twin, trec, td := newKickHV(t)
	for _, pair := range []struct {
		h *Hypervisor
		d *Domain
	}{{guard, gd}, {twin, td}} {
		h := pair.h
		h.PCPUs[1].idle = false // came off a quantum since boot
		h.PCPUs[2].idle = false
		h.PCPUs[4].IdleTime = 7 * sim.Millisecond
		h.Engine.RunUntil(sim.Time(2 * sim.Millisecond))
	}

	guard.kickIdle()
	guard.PCPUs[2].Current = gd.VCPUs[0] // busy again before the batch fires
	runKickEvents(guard)
	guard.PCPUs[2].Current = nil

	var idle []*PCPU
	for _, p := range twin.PCPUs {
		if p.Current == nil {
			idle = append(idle, p)
		}
	}
	twin.PCPUs[2].Current = td.VCPUs[0]
	for _, p := range idle {
		twin.schedule(p)
	}
	twin.PCPUs[2].Current = nil

	if len(grec.picks) != 0 {
		t.Fatalf("guard called PickNext for %v", grec.picks)
	}
	if len(trec.picks) != len(idle)-1 {
		t.Fatalf("twin called PickNext %d times, want %d", len(trec.picks), len(idle)-1)
	}
	for i, p := range guard.PCPUs {
		q := twin.PCPUs[i]
		if p.idle != q.idle || p.IdleSince != q.IdleSince || p.IdleTime != q.IdleTime {
			t.Fatalf("pcpu %d: guard idle=%v since %v time %v, schedule idle=%v since %v time %v",
				p.ID, p.idle, p.IdleSince, p.IdleTime, q.idle, q.IdleSince, q.IdleTime)
		}
	}
	if !guard.PCPUs[1].idle || guard.PCPUs[1].IdleSince != sim.Time(2*sim.Millisecond) {
		t.Fatalf("pcpu 1 idle=%v since %v, want idle since 2ms", guard.PCPUs[1].idle, guard.PCPUs[1].IdleSince)
	}
	if guard.PCPUs[0].IdleSince != 0 {
		t.Fatalf("pcpu 0 idle since %v, want 0 (idle since boot)", guard.PCPUs[0].IdleSince)
	}
}

// TestRunningCountTracksCurrent checks the running count the credit tick
// guards on against a census of PCPU.Current on a host that blocks,
// wakes and steals.
func TestRunningCountTracksCurrent(t *testing.T) {
	h := New(numa.XeonE5620(), stealPolicy{}, DefaultConfig())
	d, err := h.CreateDomain("vm", 2048, 6, mem.PolicyStripe)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.VCPUs {
		if _, err := h.AttachApp(d, i, workload.GuestIdle()); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 200; step++ {
		h.Engine.RunUntil(sim.Time(step) * sim.Time(sim.Millisecond))
		n := 0
		for _, p := range h.PCPUs {
			if p.Current != nil {
				n++
			}
		}
		if n != h.running {
			t.Fatalf("at %v: %d PCPUs have a current VCPU, running count %d", h.Engine.Now(), n, h.running)
		}
	}
	if h.TotalBusyTime() == 0 {
		t.Fatal("no VCPU ran; the census is vacuous")
	}
}
