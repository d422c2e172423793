package xen_test

import (
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

func TestPauseStopsExecution(t *testing.T) {
	h, victim, _ := lifecycleHV(t)
	h.Engine.Schedule(sim.Second, "pause", func(*sim.Engine) {
		if err := h.PauseDomain(victim); err != nil {
			t.Error(err)
		}
	})
	h.Run(3 * sim.Second)
	var atPause []float64
	for _, v := range victim.VCPUs {
		atPause = append(atPause, v.InstrDone)
		if v.State != xen.StateBlocked {
			t.Fatalf("paused VCPU %d in state %v", v.ID, v.State)
		}
	}
	// Two more seconds: no progress while paused.
	h.Run(5 * sim.Second)
	for i, v := range victim.VCPUs {
		if v.InstrDone != atPause[i] {
			t.Fatalf("paused VCPU %d progressed: %v -> %v", v.ID, atPause[i], v.InstrDone)
		}
	}
}

func TestPauseResumeCompletes(t *testing.T) {
	h, victim, _ := lifecycleHV(t)
	h.Engine.Schedule(sim.Second, "pause", func(*sim.Engine) { h.PauseDomain(victim) })
	h.Engine.Schedule(3*sim.Second, "resume", func(*sim.Engine) { h.ResumeDomain(victim) })
	h.WatchDomains(victim)
	h.Run(120 * sim.Second)
	if !victim.AllDone() {
		t.Fatal("victim did not finish after resume")
	}
	// The pause window must show up in completion time: at least the 2
	// paused seconds beyond the unpaused baseline.
	for _, v := range victim.VCPUs {
		if v.FinishTime < sim.Time(3*sim.Second) {
			t.Fatalf("VCPU %d finished during the pause window: %v", v.ID, v.FinishTime)
		}
	}
}

func TestPauseDoubleFails(t *testing.T) {
	h, victim, _ := lifecycleHV(t)
	h.Run(100 * sim.Millisecond)
	if err := h.PauseDomain(victim); err != nil {
		t.Fatal(err)
	}
	if err := h.PauseDomain(victim); err == nil {
		t.Fatal("double pause accepted")
	}
	if err := h.ResumeDomain(victim); err != nil {
		t.Fatal(err)
	}
	if err := h.ResumeDomain(victim); err == nil {
		t.Fatal("double resume accepted")
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
	if err := h.ResumeDomain(victim); err == nil {
		t.Fatal("resumed a destroyed domain")
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
	// Pause while VCPUs are blocked (mid block timer): the pending wake
	// must not re-enqueue them.
	h, victim, _ := lifecycleHV(t)
	h.Run(500 * sim.Millisecond)
	if err := h.PauseDomain(victim); err != nil {
		t.Fatal(err)
	}
	h.Run(2 * sim.Second) // any pending wakes fire into the pause
	for _, v := range victim.VCPUs {
		if v.State != xen.StateBlocked {
			t.Fatalf("VCPU %d woke while paused: %v", v.ID, v.State)
		}
	}
	if err := h.ResumeDomain(victim); err != nil {
		t.Fatal(err)
	}
	h.WatchDomains(victim)
	h.Run(120 * sim.Second)
	if !victim.AllDone() {
		t.Fatal("victim did not recover after blocked-pause-resume")
	}
}

func TestWorkConservationAcrossPause(t *testing.T) {
	// While the victim is paused, the four burners each get a whole
	// PCPU: their run time jumps from a shared slice to ~full speed.
	h, victim, other := lifecycleHV(t)
	h.Engine.Schedule(sim.Second, "pause", func(*sim.Engine) { h.PauseDomain(victim) })
	h.Run(4 * sim.Second)
	for _, v := range other.VCPUs {
		if v.App == nil {
			continue
		}
		// ~1s shared (8 VCPUs / 8 PCPUs) + ~3s exclusive.
		if v.RunTime.Seconds() < 3.5 {
			t.Fatalf("burner VCPU %d ran only %.2fs; pause did not free CPUs", v.ID, v.RunTime.Seconds())
		}
	}
}
