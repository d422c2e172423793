package core

import (
	"vprobe/internal/numa"
)

// Assignment is one output row of Algorithm 1: the VCPU identified by VCPU
// should run on Node for the next sampling period.
type Assignment struct {
	VCPU int
	Node numa.NodeID
}

// Partition implements the paper's Algorithm 1, VCPU Periodical
// Partitioning. It reassigns every memory-intensive VCPU (types LLC-T and
// LLC-FI) to a node such that the per-node counts differ by at most one,
// preferring to place each VCPU on its memory node affinity (local node),
// and otherwise draining the largest remaining affinity group to maximise
// other VCPUs' chances of local placement.
//
// LLC-FR VCPUs are not assigned (the default load balancing handles them);
// they simply do not appear in the output.
//
// The input order within each (type, affinity) group is preserved — the
// algorithm's "first VCPU of the group" is the first in stats order, so
// callers control tie-breaking by ordering their input (the prototype
// iterates Xen's per-domain VCPU lists).
//
// VCPUs with no affinity signal (numa.NoNode) are grouped under node 0;
// for a memory-intensive VCPU this only happens in degenerate windows.
func Partition(stats []Stat, numNodes int) []Assignment {
	var s PartitionScratch
	return s.Partition(stats, numNodes)
}

// PartitionScratch holds Partition's working buffers so the caller of
// the once-per-period pass can reuse them across calls. The zero value is
// ready to use; a scratch must not be shared by concurrent callers.
type PartitionScratch struct {
	// groups[c][p] is groupOfVc(c, p): the VCPUs of category c (0 =
	// LLC-T, 1 = LLC-FI, the assignment priority order) with affinity p,
	// in input order. head[c][p] indexes the first one not yet assigned.
	groups [2][][]int
	head   [2][]int
	// load is reassigned_load per node.
	load []int
	out  []Assignment
}

// Partition is the allocation-free form of the package-level Partition,
// reusing the scratch's buffers once they have grown to the node and
// VCPU counts. The returned assignments are the scratch's own, valid
// until its next call.
//
//vprobe:hotpath
func (s *PartitionScratch) Partition(stats []Stat, numNodes int) []Assignment {
	if numNodes <= 0 {
		return nil
	}
	for cat := range s.groups {
		if len(s.groups[cat]) < numNodes {
			s.groups[cat] = make([][]int, numNodes) //vet:alloc warmup growth to the node count, then reused
			s.head[cat] = make([]int, numNodes)     //vet:alloc warmup growth to the node count, then reused
		}
		for n := range s.groups[cat] {
			s.groups[cat][n] = s.groups[cat][n][:0]
			s.head[cat][n] = 0
		}
	}
	if len(s.load) < numNodes {
		s.load = make([]int, numNodes) //vet:alloc warmup growth to the node count, then reused
	}
	load := s.load[:numNodes]
	clear(load)

	remaining := 0
	for _, st := range stats {
		var cat int
		switch st.Type {
		case TypeT:
			cat = 0
		case TypeFI:
			cat = 1
		default:
			continue // LLC-FR: default strategy
		}
		aff := int(st.Affinity)
		if aff < 0 || aff >= numNodes {
			aff = 0
		}
		//vet:alloc each group's buffer grows to its peak VCPU count during warmup, then is reused
		s.groups[cat][aff] = append(s.groups[cat][aff], st.VCPU)
		remaining++
	}

	out := s.out[:0]
	for ; remaining > 0; remaining-- {
		node := minNode(load)
		cat := 0 // prefer LLC-T
		if s.catEmpty(0, numNodes) {
			cat = 1
		}
		src := node
		if s.left(cat, node) == 0 {
			src = s.maxGroup(cat, numNodes)
		}
		vc := s.groups[cat][src][s.head[cat][src]]
		s.head[cat][src]++
		out = append(out, Assignment{VCPU: vc, Node: numa.NodeID(node)}) //vet:alloc grows to the memory-intensive VCPU count during warmup, then is reused
		load[node]++
	}
	s.out = out
	return out
}

// left counts the unassigned VCPUs of group (cat, node).
func (s *PartitionScratch) left(cat, node int) int {
	return len(s.groups[cat][node]) - s.head[cat][node]
}

// maxGroup returns the node of category cat's largest unassigned group,
// ties toward the lowest node id, or -1 when the category is empty.
func (s *PartitionScratch) maxGroup(cat, numNodes int) int {
	best := -1
	for i := 0; i < numNodes; i++ {
		if s.left(cat, i) == 0 {
			continue
		}
		if best == -1 || s.left(cat, i) > s.left(cat, best) {
			best = i
		}
	}
	return best
}

// catEmpty reports whether every group of category cat is assigned.
func (s *PartitionScratch) catEmpty(cat, numNodes int) bool {
	for i := 0; i < numNodes; i++ {
		if s.left(cat, i) > 0 {
			return false
		}
	}
	return true
}

// minNode is getMinNode: the node with the smallest reassigned load,
// ties toward the lowest id.
func minNode(load []int) int {
	best := 0
	for i := 1; i < len(load); i++ {
		if load[i] < load[best] {
			best = i
		}
	}
	return best
}

// NodeLoads tallies how many assignments landed on each node.
func NodeLoads(as []Assignment, numNodes int) []int {
	loads := make([]int, numNodes)
	for _, a := range as {
		if int(a.Node) >= 0 && int(a.Node) < numNodes {
			loads[a.Node]++
		}
	}
	return loads
}
