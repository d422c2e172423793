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
		randomQueues(h, d, r)
		p := h.PCPUs[r.Intn(len(h.PCPUs))]
		underOnly, localOnly := r.Intn(2) == 0, r.Intn(2) == 0

		var order []numa.NodeID
		if !localOnly {
			order = core.NodeOrderFrom(h.Top, p.Node)
		}
		var want *VCPU
		views, visible := h.QueueViews(p, underOnly, false)
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

// TestLocalOnlyViewsMatchAllNodes pins the local-only view build of
// NUMAAwareSteal's localOnly path to the all-nodes build it replaces:
// over random run-queue layouts on a four-node topology, Algorithm 2 with
// no remote node order must steal the same VCPU from the same PCPU, or
// find nothing, from either set of views.
func TestLocalOnlyViewsMatchAllNodes(t *testing.T) {
	h := New(numa.FourNode(), idlePolicy{}, DefaultConfig())
	d, err := h.CreateDomain("vm", 4096, 12, mem.PolicyStripe)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRNG(40)
	var found, none int
	for trial := 0; trial < 4000; trial++ {
		randomQueues(h, d, r)
		p := h.PCPUs[r.Intn(len(h.PCPUs))]
		underOnly := r.Intn(2) == 0
		all, _ := h.QueueViews(p, underOnly, false)
		want, wantOK := core.PickSteal(p.Node, nil, all)
		local, _ := h.QueueViews(p, underOnly, true)
		got, gotOK := core.PickSteal(p.Node, nil, local)
		if got != want || gotOK != wantOK {
			t.Fatalf("trial %d (pcpu %d, underOnly=%v): local-only views pick %+v (%v), all-nodes views %+v (%v)",
				trial, p.ID, underOnly, got, gotOK, want, wantOK)
		}
		if gotOK {
			found++
		} else {
			none++
		}
	}
	if found == 0 || none == 0 {
		t.Fatalf("trials did not cover both outcomes: %d steals, %d empty", found, none)
	}
}

// randomQueues empties every run queue of h and queues a random prefix
// of d's VCPUs on random PCPUs: OVER or UNDER, some pinned, some
// partition-assigned, some cache-hot, with random pressures.
func randomQueues(h *Hypervisor, d *Domain, r *sim.RNG) {
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
}

func vcpuName(v *VCPU) any {
	if v == nil {
		return "nil"
	}
	return v.ID
}

// BenchmarkStealPath times NUMAAwareSteal end to end (the view build
// and Algorithm 2) on a two-node host whose seven other PCPUs each hold
// one UNDER and one OVER VCPU, none cache-hot. head-over is the
// balancing path of a PCPU whose queue head is OVER: UNDER VCPUs only,
// local node only. idle is a PCPU with an empty queue: any priority,
// remote nodes too. Each op puts the stolen VCPU back on the queue it
// came from, so every op sees the same layout. allocs/op must stay 0.
func BenchmarkStealPath(b *testing.B) {
	for _, bc := range []struct {
		name                string
		headOver, localOnly bool
	}{
		{"head-over", true, true},
		{"idle", false, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := New(numa.XeonE5620(), idlePolicy{}, DefaultConfig())
			d, err := h.CreateDomain("vm", 4096, 2*len(h.PCPUs), mem.PolicyStripe)
			if err != nil {
				b.Fatal(err)
			}
			p := h.PCPUs[0]
			for i, v := range d.VCPUs {
				q := h.PCPUs[i/2]
				if q == p && !(bc.headOver && i == 0) {
					continue
				}
				v.Priority = PrioUnder
				if i%2 == 0 {
					v.Priority = PrioOver
				}
				v.lastQueuedAt = -1e6
				v.LLCPressure = float64(7 * i % 23)
				q.Enqueue(v)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				v := h.NUMAAwareSteal(p, bc.headOver, bc.localOnly)
				if v == nil {
					b.Fatal("nothing stolen")
				}
				h.PCPUs[v.OnPCPU].Enqueue(v)
			}
		})
	}
}
