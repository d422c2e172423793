package core

import (
	"vprobe/internal/numa"
)

// RunnableVCPU describes one stealable VCPU waiting in a run queue.
type RunnableVCPU struct {
	VCPU     int
	Pressure float64 // last analysed LLC access pressure
}

// QueueView is the load-balance algorithm's view of one PCPU's run queue.
type QueueView struct {
	CPU numa.CPUID
	// Workload is the PCPU's queue length (the paper's per-PCPU
	// workload counter, §IV-B).
	Workload int
	// Runnable lists the VCPUs that may be stolen from this queue.
	Runnable []RunnableVCPU
}

// StealDecision is Algorithm 2's output.
type StealDecision struct {
	From numa.CPUID
	VCPU int
}

// PickSteal implements the paper's Algorithm 2, NUMA-aware Load Balance,
// as a pure decision function. When a PCPU on node local becomes idle it
// searches nodes in order — local first, then the others in nodeOrder —
// and within a node checks PCPUs from heaviest workload down. From the
// first queue that has stealable VCPUs it takes the one with the smallest
// LLC access pressure (smallest impact on the destination's LLC balance).
//
// queues is indexed by node id and holds the run-queue views of that
// node's PCPUs (a node past the end has none); the function sorts each
// node's views by descending workload itself (stable: equal workloads keep
// caller order, matching the prototype's fixed PCPU iteration). It returns
// ok=false when no queue anywhere has work.
func PickSteal(local numa.NodeID, nodeOrder []numa.NodeID, queues [][]QueueView) (StealDecision, bool) {
	var s StealScratch
	return s.PickSteal(local, nodeOrder, queues)
}

// StealScratch holds PickSteal's working buffers so a caller on a hot path
// (one steal attempt per idle PCPU per quantum) can reuse them across
// calls. The zero value is ready to use; a scratch must not be shared by
// concurrent callers.
type StealScratch struct {
	visit []numa.NodeID
	order []int
}

// PickSteal is the allocation-free form of the package-level PickSteal,
// reusing the scratch's buffers once they have grown to topology size.
//
//vprobe:hotpath
func (s *StealScratch) PickSteal(local numa.NodeID, nodeOrder []numa.NodeID, queues [][]QueueView) (StealDecision, bool) {
	if cap(s.visit) < len(nodeOrder)+1 {
		s.visit = make([]numa.NodeID, 0, len(nodeOrder)+1) //vet:alloc warmup growth to topology size, then reused
	}
	visit := append(s.visit[:0], local) //vet:alloc capacity guaranteed by the guard above; never grows in steady state
	for _, n := range nodeOrder {
		if n != local {
			visit = append(visit, n) //vet:alloc capacity guaranteed by the guard above
		}
	}
	s.visit = visit
	for _, node := range visit {
		if node < 0 || int(node) >= len(queues) {
			continue
		}
		views := queues[node]
		// Stable selection sort by descending workload (tiny N; keeps
		// the package dependency-free and the order deterministic).
		if cap(s.order) < len(views) {
			s.order = make([]int, 0, len(views)) //vet:alloc warmup growth to queue width, then reused
		}
		order := s.order[:0]
		for i := range views {
			order = append(order, i) //vet:alloc capacity guaranteed by the guard above
		}
		s.order = order
		for i := 0; i < len(order); i++ {
			best := i
			for j := i + 1; j < len(order); j++ {
				if views[order[j]].Workload > views[order[best]].Workload {
					best = j
				}
			}
			order[i], order[best] = order[best], order[i]
		}
		for _, idx := range order {
			q := views[idx]
			if len(q.Runnable) == 0 {
				continue
			}
			pick := q.Runnable[0]
			for _, r := range q.Runnable[1:] {
				if r.Pressure < pick.Pressure {
					pick = r
				}
			}
			return StealDecision{From: q.CPU, VCPU: pick.VCPU}, true
		}
	}
	return StealDecision{}, false
}

// NodeOrderFrom returns the node visiting order for an idle PCPU on node
// local: the paper's nextNode() walks the remote nodes in increasing
// distance then id order. For the two-node testbed this is simply "the
// other node".
func NodeOrderFrom(top *numa.Topology, local numa.NodeID) []numa.NodeID {
	n := top.NumNodes()
	//vet:alloc called once per node on first steal, then cached by the hypervisor (nodeOrders)
	order := make([]numa.NodeID, 0, n-1)
	// Insertion by (distance, id).
	for id := 0; id < n; id++ {
		if numa.NodeID(id) == local {
			continue
		}
		order = append(order, numa.NodeID(id)) //vet:alloc capacity pre-sized to n-1 above
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			da, db := top.Distance(local, a), top.Distance(local, b)
			if db < da || (db == da && b < a) {
				order[j-1], order[j] = b, a
			} else {
				break
			}
		}
	}
	return order
}
