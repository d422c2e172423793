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

// pcpuState is the exported state of one PCPU that PickNext could touch.
type pcpuState struct {
	current   *xen.VCPU
	queued    int
	workload  int
	idleSince sim.Time
	idleTime  sim.Duration
	busyTime  sim.Duration
}

func pcpuStates(h *xen.Hypervisor) []pcpuState {
	out := make([]pcpuState, len(h.PCPUs))
	for i, p := range h.PCPUs {
		out[i] = pcpuState{p.Current, p.QueueLen(), p.Workload, p.IdleSince, p.IdleTime, p.BusyTime}
	}
	return out
}

// idleHostWithEmptyQueues starts a host whose two housekeeping VCPUs
// block most of the time and runs it until a PCPU is idle and every run
// queue is empty, then returns that PCPU.
func idleHostWithEmptyQueues(t *testing.T, kind sched.Kind) (*xen.Hypervisor, *xen.PCPU) {
	t.Helper()
	h := xen.New(numa.XeonE5620(), sched.MustNew(kind), xen.DefaultConfig())
	xen.AttachTelemetry(h, telemetry.NewSampler(telemetry.NewRegistry(), sim.Second))
	d, err := h.CreateDomain("vm", 2048, 2, mem.PolicyStripe)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.VCPUs {
		if _, err := h.AttachApp(d, i, workload.GuestIdle()); err != nil {
			t.Fatal(err)
		}
	}
	for step := 1; step <= 1000; step++ {
		h.Run(sim.Duration(step) * 3 * sim.Millisecond)
		empty := true
		for _, p := range h.PCPUs {
			empty = empty && p.QueueLen() == 0
		}
		if !empty || h.TotalBusyTime() == 0 {
			continue
		}
		for _, p := range h.PCPUs {
			if p.Current == nil {
				return h, p
			}
		}
	}
	t.Fatal("no instant with an idle PCPU and every run queue empty")
	return nil, nil
}

// TestPickNextEmptyQueuesIsPure pins the Policy contract the idle-kick
// guard relies on: with every run queue of a started host empty, each
// policy's PickNext on an idle PCPU returns nil, draws nothing from the
// hypervisor's RNG, counts no steal, and leaves every queue and PCPU as
// it was. An untouched twin of the host supplies the expected RNG draw.
func TestPickNextEmptyQueuesIsPure(t *testing.T) {
	for _, kind := range sched.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			h, p := idleHostWithEmptyQueues(t, kind)
			twin, _ := idleHostWithEmptyQueues(t, kind)
			before := pcpuStates(h)
			local, remote := h.Tele.StealsLocal.Value(), h.Tele.StealsRemote.Value()

			if v := h.Policy.PickNext(h, p); v != nil {
				t.Fatalf("PickNext on pcpu %d returned vcpu %d with every queue empty", p.ID, v.ID)
			}
			if got, want := h.RNG.Uint64(), twin.RNG.Uint64(); got != want {
				t.Fatalf("next RNG draw %d, untouched twin draws %d", got, want)
			}
			if h.Tele.StealsLocal.Value() != local || h.Tele.StealsRemote.Value() != remote {
				t.Fatalf("steal counters moved: local %v -> %v, remote %v -> %v",
					local, h.Tele.StealsLocal.Value(), remote, h.Tele.StealsRemote.Value())
			}
			after := pcpuStates(h)
			for i := range before {
				if after[i] != before[i] {
					t.Fatalf("pcpu %d changed: %+v -> %+v", i, before[i], after[i])
				}
			}
		})
	}
}
