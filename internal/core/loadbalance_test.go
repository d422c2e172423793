package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vprobe/internal/numa"
)

func rv(id int, p float64) RunnableVCPU { return RunnableVCPU{VCPU: id, Pressure: p} }

func TestPickStealPrefersLocalNode(t *testing.T) {
	queues := [][]QueueView{
		0: {{CPU: 1, Workload: 1, Runnable: []RunnableVCPU{rv(10, 5)}}},
		1: {{CPU: 4, Workload: 9, Runnable: []RunnableVCPU{rv(20, 1)}}},
	}
	d, ok := PickSteal(0, []numa.NodeID{1}, queues)
	if !ok {
		t.Fatal("no steal found")
	}
	// Local node wins even though the remote queue is heavier and its
	// VCPU has lower pressure.
	if d.From != 1 || d.VCPU != 10 {
		t.Fatalf("stole %+v, want local VCPU 10 from CPU 1", d)
	}
}

func TestPickStealHeaviestPCPUFirst(t *testing.T) {
	queues := [][]QueueView{
		0: {
			{CPU: 0, Workload: 2, Runnable: []RunnableVCPU{rv(1, 1)}},
			{CPU: 1, Workload: 5, Runnable: []RunnableVCPU{rv(2, 50)}},
		},
	}
	d, ok := PickSteal(0, nil, queues)
	if !ok || d.From != 1 || d.VCPU != 2 {
		// Algorithm 2 checks the heaviest queue first and takes its
		// min-pressure VCPU — not the global min-pressure VCPU.
		t.Fatalf("stole %+v, want VCPU 2 from the heaviest CPU 1", d)
	}
}

func TestPickStealMinPressureWithinQueue(t *testing.T) {
	queues := [][]QueueView{
		0: {{CPU: 3, Workload: 3, Runnable: []RunnableVCPU{rv(1, 22), rv(2, 3), rv(3, 15)}}},
	}
	d, ok := PickSteal(0, nil, queues)
	if !ok || d.VCPU != 2 {
		t.Fatalf("stole %+v, want the min-pressure VCPU 2", d)
	}
}

func TestPickStealFallsBackToRemote(t *testing.T) {
	queues := [][]QueueView{
		0: {{CPU: 0, Workload: 0, Runnable: nil}},
		1: {{CPU: 5, Workload: 2, Runnable: []RunnableVCPU{rv(9, 8)}}},
	}
	d, ok := PickSteal(0, []numa.NodeID{1}, queues)
	if !ok || d.From != 5 || d.VCPU != 9 {
		t.Fatalf("stole %+v, want remote VCPU 9", d)
	}
}

func TestPickStealSkipsEmptyHeavyQueue(t *testing.T) {
	// A queue can report workload > 0 (its running VCPU) but have no
	// stealable VCPUs; Algorithm 2 moves on to the next PCPU.
	queues := [][]QueueView{
		0: {
			{CPU: 0, Workload: 7, Runnable: nil},
			{CPU: 1, Workload: 3, Runnable: []RunnableVCPU{rv(4, 2)}},
		},
	}
	d, ok := PickSteal(0, nil, queues)
	if !ok || d.VCPU != 4 {
		t.Fatalf("stole %+v, want VCPU 4", d)
	}
}

func TestPickStealNothingRunnable(t *testing.T) {
	queues := [][]QueueView{
		0: {{CPU: 0, Workload: 0}},
		1: {{CPU: 4, Workload: 0}},
	}
	if _, ok := PickSteal(0, []numa.NodeID{1}, queues); ok {
		t.Fatal("stole from empty machine")
	}
	if _, ok := PickSteal(0, nil, nil); ok {
		t.Fatal("stole from nil queues")
	}
}

func TestPickStealStableOnWorkloadTies(t *testing.T) {
	queues := [][]QueueView{
		0: {
			{CPU: 0, Workload: 4, Runnable: []RunnableVCPU{rv(1, 10)}},
			{CPU: 1, Workload: 4, Runnable: []RunnableVCPU{rv(2, 1)}},
		},
	}
	d, _ := PickSteal(0, nil, queues)
	if d.From != 0 || d.VCPU != 1 {
		t.Fatalf("tie-break changed caller order: %+v", d)
	}
}

// Property: PickSteal returns a VCPU that actually exists in the declared
// queues, never steals when everything is empty, and always prefers a
// non-empty local node over remote ones.
func TestPickStealProperties(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numNodes := rng.Intn(3) + 1
		queues := make([][]QueueView, numNodes)
		exists := map[int]numa.NodeID{}
		id := 1
		localHasWork := false
		for n := 0; n < numNodes; n++ {
			var views []QueueView
			for c := 0; c < rng.Intn(3)+1; c++ {
				var run []RunnableVCPU
				for v := 0; v < rng.Intn(3); v++ {
					run = append(run, rv(id, float64(rng.Intn(30))))
					exists[id] = numa.NodeID(n)
					if n == 0 {
						localHasWork = true
					}
					id++
				}
				views = append(views, QueueView{
					CPU: numa.CPUID(n*4 + c), Workload: rng.Intn(5), Runnable: run,
				})
			}
			queues[n] = views
		}
		var order []numa.NodeID
		for n := 1; n < numNodes; n++ {
			order = append(order, numa.NodeID(n))
		}
		d, ok := PickSteal(0, order, queues)
		if !ok {
			return len(exists) == 0
		}
		home, known := exists[d.VCPU]
		if !known {
			return false
		}
		if localHasWork && home != 0 {
			return false // stole remote while local work existed
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeOrderFrom(t *testing.T) {
	two := numa.XeonE5620()
	if got := NodeOrderFrom(two, 0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("order from 0 = %v", got)
	}
	if got := NodeOrderFrom(two, 1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("order from 1 = %v", got)
	}
	four := numa.FourNode()
	got := NodeOrderFrom(four, 2)
	if len(got) != 3 {
		t.Fatalf("order length = %d", len(got))
	}
	seen := map[numa.NodeID]bool{2: true}
	for _, n := range got {
		if seen[n] {
			t.Fatalf("duplicate/self in order: %v", got)
		}
		seen[n] = true
	}
	// Equal distances: id order.
	if got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("order = %v, want [0 1 3]", got)
	}
	uma := numa.SingleNode()
	if got := NodeOrderFrom(uma, 0); len(got) != 0 {
		t.Fatalf("UMA order = %v, want empty", got)
	}
}
