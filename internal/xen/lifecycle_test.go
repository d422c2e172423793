package xen_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"vprobe/internal/mem"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
	"vprobe/internal/workload"
	"vprobe/internal/xen"
)

func lifecycleHV(t *testing.T) (*xen.Hypervisor, *xen.Domain, *xen.Domain) {
	t.Helper()
	h := newHV(t, sched.KindVProbe)
	victim, err := h.CreateDomain("victim", 4*1024, 4, mem.PolicyStripe)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := h.AttachApp(victim, i, workload.Soplex().Scale(0.1)); err != nil {
			t.Fatal(err)
		}
	}
	other, err := h.CreateDomain("other", 4*1024, 4, mem.PolicyFill)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := h.AttachApp(other, i, workload.Hungry()); err != nil {
			t.Fatal(err)
		}
	}
	return h, victim, other
}

// TestPauseStopsExecution checks DestroyDomain's stop step (the pause that
// starts a teardown): the domain's VCPUs make no progress afterwards.
func TestPauseStopsExecution(t *testing.T) {
	h, victim, _ := lifecycleHV(t)
	h.Engine.Schedule(sim.Second, "destroy", func(*sim.Engine) {
		if err := h.DestroyDomain(victim); err != nil {
			t.Error(err)
		}
	})
	h.Run(3 * sim.Second)
	var atDestroy []float64
	for _, v := range victim.VCPUs {
		atDestroy = append(atDestroy, v.InstrDone)
		if v.State != xen.StateBlocked {
			t.Fatalf("destroyed VCPU %d in state %v", v.ID, v.State)
		}
	}
	// Two more seconds: no progress after the teardown.
	h.Run(5 * sim.Second)
	for i, v := range victim.VCPUs {
		if v.InstrDone != atDestroy[i] {
			t.Fatalf("destroyed VCPU %d progressed: %v -> %v", v.ID, atDestroy[i], v.InstrDone)
		}
	}
}

func TestDestroyReleasesMemoryAndWatch(t *testing.T) {
	h, victim, other := lifecycleHV(t)
	free := h.Alloc.TotalFreeMB()
	h.Engine.Schedule(sim.Second, "destroy", func(*sim.Engine) {
		if err := h.DestroyDomain(victim); err != nil {
			t.Error(err)
		}
	})
	h.WatchDomains(victim)
	end := h.Run(60 * sim.Second)
	// Watch treats the destroyed domain as complete: the run stops at the
	// destroy, not at the horizon.
	if end > sim.Time(2*sim.Second) {
		t.Fatalf("run continued past destroy: %v", end)
	}
	if h.Alloc.TotalFreeMB() != free+victim.MemoryMB {
		t.Fatalf("memory not released: free %d", h.Alloc.TotalFreeMB())
	}
	if err := h.DestroyDomain(victim); err == nil {
		t.Fatal("double destroy accepted")
	}
	_ = other
}

func TestDestroyDuringSamplingPeriodSafe(t *testing.T) {
	// Killing a domain right before the analyzer's period boundary must
	// not break partitioning for the survivors.
	h, victim, other := lifecycleHV(t)
	h.Engine.Schedule(990*sim.Millisecond, "destroy", func(*sim.Engine) { h.DestroyDomain(victim) })
	h.Run(5 * sim.Second)
	for _, v := range other.VCPUs {
		if v.App != nil && v.RunTime == 0 {
			t.Fatalf("survivor VCPU %d starved after destroy", v.ID)
		}
	}
}

func TestPausedVCPUIgnoresWake(t *testing.T) {
	// Destroy while VCPUs are blocked (mid block timer): no later wake
	// may re-enqueue them.
	h, victim, _ := lifecycleHV(t)
	h.Run(500 * sim.Millisecond)
	if err := h.DestroyDomain(victim); err != nil {
		t.Fatal(err)
	}
	h.Run(2 * sim.Second) // any pending wakes would fire by now
	for _, v := range victim.VCPUs {
		if v.State != xen.StateBlocked {
			t.Fatalf("VCPU %d woke after destroy: %v", v.ID, v.State)
		}
	}
}

func TestWorkConservationAcrossPause(t *testing.T) {
	// Once the victim is destroyed, the four burners each get a whole
	// PCPU: their run time jumps from a shared slice to ~full speed.
	h, victim, other := lifecycleHV(t)
	h.Engine.Schedule(sim.Second, "destroy", func(*sim.Engine) { h.DestroyDomain(victim) })
	h.Run(4 * sim.Second)
	for _, v := range other.VCPUs {
		if v.App == nil {
			continue
		}
		// ~1s shared (8 VCPUs / 8 PCPUs) + ~3s exclusive.
		if v.RunTime.Seconds() < 3.5 {
			t.Fatalf("burner VCPU %d ran only %.2fs; destroy did not free CPUs", v.ID, v.RunTime.Seconds())
		}
	}
}

// TestLiveVCPUsAndRunnableGen steps a churning host between events —
// servers blocking and waking, batch phases turning over, a guest-thread
// swap and two teardowns — and checks after every step that LiveVCPUs is
// AllVCPUs less exactly the terminal VCPUs (domain destroyed, blocked,
// neither current nor queued), in creation order, and that an unchanged
// RunnableGen means an unchanged set of runnable VCPUs and phases.
func TestLiveVCPUsAndRunnableGen(t *testing.T) {
	h := newHV(t, sched.KindVProbe)
	var doms []*xen.Domain
	for i, app := range []*workload.Profile{workload.Memcached(64), workload.MG(), workload.Redis(2000)} {
		// Two guest-housekeeping VCPUs per domain give the guest
		// scheduler somewhere to park a thread.
		d, err := h.CreateDomain(fmt.Sprintf("vm%d", i), 2*1024, 5, mem.PolicyStripe)
		if err != nil {
			t.Fatal(err)
		}
		for j, a := range []*workload.Profile{app, app, app, workload.GuestIdle(), workload.GuestIdle()} {
			if _, err := h.AttachApp(d, j, a.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		doms = append(doms, d)
	}
	h.Engine.Schedule(12*sim.Second, "destroy", func(*sim.Engine) { h.DestroyDomain(doms[0]) })
	h.Engine.Schedule(14*sim.Second, "destroy", func(*sim.Engine) { h.DestroyDomain(doms[1]) })

	type runnable struct {
		v  *xen.VCPU
		ph *workload.Phase
	}
	snapshot := func() []runnable {
		var out []runnable
		for _, v := range h.AllVCPUs() {
			if v.Runnable() {
				out = append(out, runnable{v, v.Phase()})
			}
		}
		return out
	}
	held := func(v *xen.VCPU) bool {
		for _, p := range h.PCPUs {
			if p.Current == v || slices.Contains(p.Queue(), v) {
				return true
			}
		}
		return false
	}
	gen, set := h.RunnableGen(), snapshot()
	for at := sim.Time(50 * sim.Microsecond); at <= sim.Time(16*sim.Second); at += sim.Time(50 * sim.Microsecond) {
		if _, err := h.RunContext(context.Background(), sim.Duration(at)); err != nil {
			t.Fatal(err)
		}
		var want []*xen.VCPU
		for _, v := range h.AllVCPUs() {
			if !v.Dom.Destroyed || v.State != xen.StateBlocked || held(v) {
				want = append(want, v)
			}
		}
		if got := h.LiveVCPUs(); !slices.Equal(got, want) {
			t.Fatalf("at %v: %d live VCPUs, want %d", at, len(got), len(want))
		}
		now := snapshot()
		if h.RunnableGen() == gen && !slices.Equal(now, set) {
			t.Fatalf("at %v: the runnable set or a phase moved under generation %d", at, gen)
		}
		gen, set = h.RunnableGen(), now
	}
	if n := len(h.LiveVCPUs()); n >= len(h.AllVCPUs()) {
		t.Fatalf("no VCPU retired after two teardowns: %d live of %d", n, len(h.AllVCPUs()))
	}
}
