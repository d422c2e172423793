package xen

import (
	"testing"

	"vprobe/internal/core"
	"vprobe/internal/mem"
	"vprobe/internal/numa"
	"vprobe/internal/sim"
)

// idlePolicy is the least Policy that builds a Hypervisor: the steal
// test drives the run queues by hand and never starts the engine.
type idlePolicy struct{}

func (idlePolicy) Name() string                      { return "idle" }
func (idlePolicy) UsesPMU() bool                     { return false }
func (idlePolicy) NUMAAwareBalance() bool            { return true }
func (idlePolicy) PickNext(*Hypervisor, *PCPU) *VCPU { return nil }
func (idlePolicy) OnTick(*Hypervisor, *VCPU)         {}
func (idlePolicy) Period() sim.Duration              { return 0 }
func (idlePolicy) OnPeriod(*Hypervisor)              {}

// TestNUMAAwareStealMatchesReference pins NUMAAwareSteal, including its
// nothing-queued and nothing-visible fast paths, to the reference it
// short-cuts: QueueViews followed by PickSteal. Over random run-queue states (empty queues,
// pinned, partition-assigned, cache-hot, OVER and UNDER VCPUs on a
// four-node topology) and every (underOnly, localOnly) combination, the
// stolen VCPU must be the one the reference picks, or nil for both.
func TestNUMAAwareStealMatchesReference(t *testing.T) {
	h := New(numa.FourNode(), idlePolicy{}, DefaultConfig())
	d, err := h.CreateDomain("vm", 4096, 12, mem.PolicyStripe)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRNG(18)
	var idle, hidden, slow, stolen int
	for trial := 0; trial < 4000; trial++ {
		for _, q := range h.PCPUs {
			for q.Dequeue() != nil {
			}
		}
		queued := r.Intn(4)
		if r.Intn(4) == 0 {
			queued = r.Intn(len(d.VCPUs) + 1)
		}
		for i := 0; i < queued; i++ {
			v := d.VCPUs[i]
			v.Priority = PrioUnder
			if r.Intn(2) == 0 {
				v.Priority = PrioOver
			}
			v.PinnedPCPU = -1
			if r.Intn(6) == 0 {
				v.PinnedPCPU = numa.CPUID(r.Intn(len(h.PCPUs)))
			}
			v.AssignedNode = numa.NoNode
			if r.Intn(4) == 0 {
				v.AssignedNode = numa.NodeID(r.Intn(h.Top.NumNodes()))
			}
			v.lastQueuedAt = -1e6
			if r.Intn(3) == 0 {
				v.lastQueuedAt = 0
			}
			v.LLCPressure = float64(r.Intn(50))
			h.PCPUs[r.Intn(len(h.PCPUs))].Enqueue(v)
		}
		p := h.PCPUs[r.Intn(len(h.PCPUs))]
		underOnly, localOnly := r.Intn(2) == 0, r.Intn(2) == 0

		var order []numa.NodeID
		if !localOnly {
			order = core.NodeOrderFrom(h.Top, p.Node)
		}
		var want *VCPU
		views, visible := h.QueueViews(p, underOnly)
		if dec, ok := core.PickSteal(p.Node, order, views); ok {
			want = h.vcpus[dec.VCPU]
		}
		switch {
		case !h.othersQueued(p, localOnly):
			idle++
		case visible == 0:
			hidden++
		default:
			slow++
		}
		got := h.NUMAAwareSteal(p, underOnly, localOnly)
		if got != want {
			t.Fatalf("trial %d (pcpu %d, underOnly=%v, localOnly=%v): stole %v, reference %v",
				trial, p.ID, underOnly, localOnly, vcpuName(got), vcpuName(want))
		}
		if got != nil {
			stolen++
		}
	}
	if idle == 0 || hidden == 0 || slow == 0 || stolen == 0 {
		t.Fatalf("trials did not cover every path: idle %d, hidden %d, slow %d, stolen %d",
			idle, hidden, slow, stolen)
	}
}

func vcpuName(v *VCPU) any {
	if v == nil {
		return "nil"
	}
	return v.ID
}
