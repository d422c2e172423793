package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vprobe/internal/numa"
)

func st(id int, typ VCPUType, aff numa.NodeID) Stat {
	p := 1.0
	switch typ {
	case TypeFI:
		p = 10
	case TypeT:
		p = 25
	}
	return Stat{VCPU: id, Pressure: p, Affinity: aff, Type: typ}
}

func TestPartitionBalancesEvenly(t *testing.T) {
	// 6 memory-intensive VCPUs over 2 nodes -> 3 per node.
	stats := []Stat{
		st(0, TypeT, 0), st(1, TypeT, 0), st(2, TypeT, 0),
		st(3, TypeFI, 1), st(4, TypeFI, 1), st(5, TypeFI, 1),
	}
	as := Partition(stats, 2)
	if len(as) != 6 {
		t.Fatalf("assigned %d, want 6", len(as))
	}
	loads := NodeLoads(as, 2)
	if loads[0] != 3 || loads[1] != 3 {
		t.Fatalf("loads = %v, want [3 3]", loads)
	}
}

func TestPartitionPrefersLocalNode(t *testing.T) {
	// Equal counts per affinity: everyone can stay local.
	stats := []Stat{
		st(0, TypeT, 0), st(1, TypeT, 1),
		st(2, TypeFI, 0), st(3, TypeFI, 1),
	}
	as := Partition(stats, 2)
	for _, a := range as {
		want := numa.NodeID(a.VCPU % 2)
		if a.Node != want {
			t.Fatalf("VCPU %d assigned to %v, local is %v (assignments %v)", a.VCPU, a.Node, want, as)
		}
	}
}

func TestPartitionThrashersFirst(t *testing.T) {
	// With one T and one FI per node and room for everyone, the T VCPUs
	// must be assigned before the FI ones (Algorithm 1 line 3-6).
	stats := []Stat{
		st(10, TypeFI, 0), st(11, TypeFI, 1),
		st(20, TypeT, 0), st(21, TypeT, 1),
	}
	as := Partition(stats, 2)
	if len(as) != 4 {
		t.Fatalf("assigned %d", len(as))
	}
	// First two assignments are the LLC-T VCPUs.
	for _, a := range as[:2] {
		if a.VCPU < 20 {
			t.Fatalf("FI VCPU %d assigned before all T VCPUs: %v", a.VCPU, as)
		}
	}
}

func TestPartitionIgnoresFR(t *testing.T) {
	stats := []Stat{
		st(0, TypeFR, 0), st(1, TypeFR, 1),
		st(2, TypeT, 0),
	}
	as := Partition(stats, 2)
	if len(as) != 1 || as[0].VCPU != 2 {
		t.Fatalf("assignments = %v, want only VCPU 2", as)
	}
}

func TestPartitionDrainsLargestGroup(t *testing.T) {
	// All four T VCPUs have affinity 0. Two must move to node 1, and
	// they are taken from the (only) largest group. FIFO order within
	// the group means VCPUs 0,2 go to node 0 (min-node alternates).
	stats := []Stat{
		st(0, TypeT, 0), st(1, TypeT, 0), st(2, TypeT, 0), st(3, TypeT, 0),
	}
	as := Partition(stats, 2)
	loads := NodeLoads(as, 2)
	if loads[0] != 2 || loads[1] != 2 {
		t.Fatalf("loads = %v", loads)
	}
	// First pick: min-node 0 (tie), group(T,0) non-empty -> VCPU 0 local.
	if as[0] != (Assignment{VCPU: 0, Node: 0}) {
		t.Fatalf("first assignment = %v", as[0])
	}
	// Second: min-node 1, group(T,1) empty -> drain max group -> VCPU 1 to node 1.
	if as[1] != (Assignment{VCPU: 1, Node: 1}) {
		t.Fatalf("second assignment = %v", as[1])
	}
}

func TestPartitionNoAffinitySignal(t *testing.T) {
	stats := []Stat{
		{VCPU: 0, Pressure: 25, Affinity: numa.NoNode, Type: TypeT},
		{VCPU: 1, Pressure: 25, Affinity: numa.NoNode, Type: TypeT},
	}
	as := Partition(stats, 2)
	if len(as) != 2 {
		t.Fatalf("assigned %d, want 2", len(as))
	}
	loads := NodeLoads(as, 2)
	if loads[0] != 1 || loads[1] != 1 {
		t.Fatalf("loads = %v", loads)
	}
}

func TestPartitionDegenerateInputs(t *testing.T) {
	if as := Partition(nil, 2); len(as) != 0 {
		t.Fatal("nil stats produced assignments")
	}
	if as := Partition([]Stat{st(0, TypeT, 0)}, 0); as != nil {
		t.Fatal("zero nodes produced assignments")
	}
	// Single node: everything lands on node 0.
	as := Partition([]Stat{st(0, TypeT, 0), st(1, TypeFI, 0)}, 1)
	for _, a := range as {
		if a.Node != 0 {
			t.Fatalf("single-node assignment = %v", a)
		}
	}
	// Out-of-range affinity is tolerated.
	as2 := Partition([]Stat{{VCPU: 5, Pressure: 30, Affinity: 9, Type: TypeT}}, 2)
	if len(as2) != 1 {
		t.Fatal("out-of-range affinity dropped the VCPU")
	}
}

// Property: Algorithm 1's invariants hold for arbitrary inputs.
func TestPartitionProperties(t *testing.T) {
	check := func(seed int64, n8, v8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		numNodes := int(n8%4) + 1
		nv := int(v8 % 40)
		stats := make([]Stat, nv)
		for i := range stats {
			typ := VCPUType(rng.Intn(3))
			aff := numa.NodeID(rng.Intn(numNodes + 1))
			if int(aff) == numNodes {
				aff = numa.NoNode
			}
			stats[i] = st(i, typ, aff)
		}
		as := Partition(stats, numNodes)

		// (1) Every memory-intensive VCPU assigned exactly once; no
		// FR VCPU assigned.
		want := map[int]bool{}
		for _, s := range stats {
			if s.Type.MemoryIntensive() {
				want[s.VCPU] = true
			}
		}
		seen := map[int]bool{}
		for _, a := range as {
			if !want[a.VCPU] || seen[a.VCPU] {
				return false
			}
			seen[a.VCPU] = true
			if int(a.Node) < 0 || int(a.Node) >= numNodes {
				return false
			}
		}
		if len(seen) != len(want) {
			return false
		}

		// (2) Node loads balanced within 1.
		loads := NodeLoads(as, numNodes)
		lo, hi := loads[0], loads[0]
		for _, l := range loads {
			if l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		return hi-lo <= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: when every memory-intensive VCPU has the same type and each
// affinity group is no larger than the balanced share, every VCPU is placed
// on its local node. (With mixed types this does NOT hold: Algorithm 1
// drains all LLC-T VCPUs before any LLC-FI, so a T VCPU can be pulled to a
// min-node whose local group holds only FI VCPUs — faithful to the paper.)
func TestPartitionLocalityWhenFeasible(t *testing.T) {
	check := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		numNodes := int(n8%3) + 2
		perNode := rng.Intn(4) + 1
		typ := TypeT
		if rng.Intn(2) == 0 {
			typ = TypeFI
		}
		var stats []Stat
		id := 0
		for n := 0; n < numNodes; n++ {
			for i := 0; i < perNode; i++ {
				stats = append(stats, st(id, typ, numa.NodeID(n)))
				id++
			}
		}
		// Shuffle input order.
		rng.Shuffle(len(stats), func(i, j int) { stats[i], stats[j] = stats[j], stats[i] })
		local := make(map[int]numa.NodeID)
		for _, s := range stats {
			local[s.VCPU] = s.Affinity
		}
		for _, a := range Partition(stats, numNodes) {
			if a.Node != local[a.VCPU] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	stats := []Stat{
		st(0, TypeT, 1), st(1, TypeFI, 0), st(2, TypeT, 0),
		st(3, TypeFI, 1), st(4, TypeT, 1), st(5, TypeFI, 0),
	}
	a := Partition(stats, 2)
	b := Partition(stats, 2)
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestNodeLoadsIgnoresOutOfRange(t *testing.T) {
	as := []Assignment{{VCPU: 0, Node: 0}, {VCPU: 1, Node: 5}}
	loads := NodeLoads(as, 2)
	if loads[0] != 1 || loads[1] != 0 {
		t.Fatalf("loads = %v", loads)
	}
}

// TestPartitionScratchMatchesReference runs one reused PartitionScratch
// over random inputs, node counts changing between calls, and requires
// each call to return exactly what referencePartition, the algorithm
// written with fresh per-call buffers, returns. Once grown, the scratch
// must partition without allocating.
func TestPartitionScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	var s PartitionScratch
	for trial := 0; trial < 2000; trial++ {
		numNodes := rng.Intn(4) + 1
		stats := make([]Stat, rng.Intn(30))
		for i := range stats {
			stats[i] = Stat{
				VCPU:     i,
				Type:     VCPUType(rng.Intn(3)),
				Affinity: numa.NodeID(rng.Intn(numNodes+2) - 1), // NoNode and out-of-range too
			}
		}
		got := s.Partition(stats, numNodes)
		want := referencePartition(stats, numNodes)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d assignments, reference %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: assignment %d is %v, reference %v", trial, i, got[i], want[i])
			}
		}
	}
	stats := make([]Stat, 24)
	for i := range stats {
		stats[i] = Stat{VCPU: i, Type: TypeFI + VCPUType(i%2), Affinity: numa.NodeID(i % 4)}
	}
	if allocs := testing.AllocsPerRun(10, func() { s.Partition(stats, 4) }); allocs != 0 {
		t.Fatalf("a grown scratch allocates %.1f times per Partition, want 0", allocs)
	}
}

// referencePartition is Algorithm 1 as first written: groups popped from
// the front of freshly built slices and helper closures over them.
func referencePartition(stats []Stat, numNodes int) []Assignment {
	groups := [2][][]int{make([][]int, numNodes), make([][]int, numNodes)}
	remaining := 0
	for _, s := range stats {
		cat := 0
		switch s.Type {
		case TypeT:
		case TypeFI:
			cat = 1
		default:
			continue
		}
		aff := int(s.Affinity)
		if aff < 0 || aff >= numNodes {
			aff = 0
		}
		groups[cat][aff] = append(groups[cat][aff], s.VCPU)
		remaining++
	}
	load := make([]int, numNodes)
	var out []Assignment
	for ; remaining > 0; remaining-- {
		node := 0
		for i := 1; i < numNodes; i++ {
			if load[i] < load[node] {
				node = i
			}
		}
		cat := 0
		empty := true
		for _, g := range groups[0] {
			empty = empty && len(g) == 0
		}
		if empty {
			cat = 1
		}
		src := node
		if len(groups[cat][node]) == 0 {
			src = -1
			for i := 0; i < numNodes; i++ {
				if len(groups[cat][i]) > 0 && (src == -1 || len(groups[cat][i]) > len(groups[cat][src])) {
					src = i
				}
			}
		}
		out = append(out, Assignment{VCPU: groups[cat][src][0], Node: numa.NodeID(node)})
		groups[cat][src] = groups[cat][src][1:]
		load[node]++
	}
	return out
}
