package mem

import (
	"fmt"
	"math"

	"vprobe/internal/numa"
)

// Policy selects how an allocation is spread across nodes.
type Policy int

const (
	// PolicyFill packs the allocation onto the lowest-numbered node with
	// free memory, spilling to the next node when full. This approximates
	// Xen 4.0.1's non-NUMA-aware domain builder.
	PolicyFill Policy = iota
	// PolicyStripe spreads the allocation evenly across all nodes with
	// capacity — the paper's "memory split into two nodes" setup for VM1.
	PolicyStripe
	// PolicyLocal places everything on a preferred node, spilling in
	// fill order only when the preferred node is full.
	PolicyLocal
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyFill:
		return "fill"
	case PolicyStripe:
		return "stripe"
	case PolicyLocal:
		return "local"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Allocator tracks free machine memory per node and produces distribution
// vectors for VM allocations.
type Allocator struct {
	top  *numa.Topology
	free []int64 // MB per node
}

// NewAllocator returns an allocator covering the whole machine.
func NewAllocator(top *numa.Topology) *Allocator {
	a := &Allocator{top: top, free: make([]int64, top.NumNodes())}
	for _, n := range top.Nodes() {
		a.free[n.ID] = n.MemoryMB
	}
	return a
}

// FreeMB returns the free memory on node id.
func (a *Allocator) FreeMB(id numa.NodeID) int64 { return a.free[id] }

// TotalFreeMB returns machine-wide free memory.
func (a *Allocator) TotalFreeMB() int64 {
	var t int64
	for _, f := range a.free {
		t += f
	}
	return t
}

// Alloc reserves sizeMB according to the policy and returns the resulting
// node distribution of the allocation. preferred is used by PolicyLocal and
// ignored otherwise.
func (a *Allocator) Alloc(sizeMB int64, policy Policy, preferred numa.NodeID) (Dist, error) {
	if sizeMB <= 0 {
		return nil, fmt.Errorf("mem: allocation of %d MB", sizeMB)
	}
	if sizeMB > a.TotalFreeMB() {
		return nil, fmt.Errorf("mem: allocation of %d MB exceeds %d MB free", sizeMB, a.TotalFreeMB())
	}
	switch policy {
	case PolicyFill, PolicyStripe:
	case PolicyLocal:
		if int(preferred) < 0 || int(preferred) >= len(a.free) {
			return nil, fmt.Errorf("mem: PolicyLocal with invalid node %d", preferred)
		}
	default:
		return nil, fmt.Errorf("mem: unknown policy %v", policy)
	}
	got, remaining := Take(a.free, sizeMB, policy, preferred)
	if remaining > 0 {
		// Roll back: capacity checked up front, so this is a bug guard.
		for node := range got {
			a.free[node] += got[node]
		}
		return nil, fmt.Errorf("mem: internal: %d MB unplaced", remaining)
	}

	d := make(Dist, len(got))
	for node := range got {
		d[node] = float64(got[node]) / float64(sizeMB)
	}
	return d, nil
}

// Take is the placement arithmetic of the three policies: it deducts
// sizeMB from the per-node free vector in place and returns the per-node
// takes and the amount that did not fit (0 when free covered the
// request). The allocator runs it on its own vector and the cluster's
// what-if planning on a host view's, so a layout planned on a view equal
// to the allocator's vector is the layout the allocator takes. preferred
// is used by PolicyLocal and skipped when it names no node; an unknown
// policy takes nothing.
func Take(free []int64, sizeMB int64, policy Policy, preferred numa.NodeID) (takes []int64, short int64) {
	takes = make([]int64, len(free))
	remaining := sizeMB
	takeFrom := func(node int, want int64) {
		if want <= 0 || free[node] <= 0 {
			return
		}
		take := want
		if take > free[node] {
			take = free[node]
		}
		free[node] -= take
		takes[node] += take
		remaining -= take
	}

	switch policy {
	case PolicyFill:
		for node := 0; node < len(free) && remaining > 0; node++ {
			takeFrom(node, remaining)
		}
	case PolicyStripe:
		// Repeatedly spread the remainder evenly over nodes that still
		// have room; two passes suffice for any capacity pattern but
		// loop until settled for robustness.
		for remaining > 0 {
			withRoom := 0
			for _, f := range free {
				if f > 0 {
					withRoom++
				}
			}
			if withRoom == 0 {
				break
			}
			per := remaining / int64(withRoom)
			if per == 0 {
				per = 1
			}
			before := remaining
			for node := 0; node < len(free) && remaining > 0; node++ {
				takeFrom(node, min(per, remaining))
			}
			if remaining == before {
				break
			}
		}
	case PolicyLocal:
		if int(preferred) >= 0 && int(preferred) < len(free) {
			takeFrom(int(preferred), remaining)
		}
		for node := 0; node < len(free) && remaining > 0; node++ {
			takeFrom(node, remaining)
		}
	}
	return takes, remaining
}

// ReleasedMB is the whole MB that releasing a sizeMB allocation laid out
// as d hands back to node: the rounding Release applies, and the one a
// what-if departure must use to agree with it.
func (d Dist) ReleasedMB(node int, sizeMB int64) int64 {
	return int64(d[node]*float64(sizeMB) + 0.5)
}

// Release returns sizeMB distributed as d to the free pools.
func (a *Allocator) Release(d Dist, sizeMB int64) {
	for node := range d {
		a.free[node] += d.ReleasedMB(node, sizeMB)
		if a.free[node] > a.top.Node(numa.NodeID(node)).MemoryMB {
			a.free[node] = a.top.Node(numa.NodeID(node)).MemoryMB
		}
	}
}

// FirstTouch derives an application's page distribution from its VM's
// machine-memory distribution and the node the owning VCPU ran on when the
// application started. locality is the first-touch weight: 1 means pages
// land entirely on the start node (subject to the VM actually having memory
// there), 0 means pages follow the VM's layout.
//
// The guest OS's first-touch allocation can only use machine frames the VM
// owns, so the concentrated component is masked by the VM distribution and
// renormalised before blending.
func FirstTouch(vmDist Dist, startNode numa.NodeID, locality float64) Dist {
	return FirstTouchInto(nil, vmDist, startNode, locality)
}

// FirstTouchInto is FirstTouch writing into a caller-owned vector: dst is
// reused when it has the capacity and the result is returned. dst may be
// nil but must not alias vmDist. The arithmetic matches FirstTouch exactly
// (same blend and renormalisation), so swapping one for the other cannot
// change simulation output.
//
//vprobe:hotpath
func FirstTouchInto(dst, vmDist Dist, startNode numa.NodeID, locality float64) Dist {
	if cap(dst) < len(vmDist) {
		dst = make(Dist, len(vmDist)) //vet:alloc only when the caller-owned buffer is too small; steady state passes pre-grown vectors
	}
	dst = dst[:len(vmDist)]
	w := math.Max(0, math.Min(1, locality))
	if vmDist.LocalFraction(startNode) > 0 {
		for i := range dst {
			c := 0.0
			if numa.NodeID(i) == startNode {
				c = 1
			}
			dst[i] = w*c + (1-w)*vmDist[i]
		}
	} else {
		// VM has no memory on the start node: the guest allocates from
		// wherever the VM has frames.
		for i := range dst {
			dst[i] = w*vmDist[i] + (1-w)*vmDist[i]
		}
	}
	dst.Normalize()
	return dst
}
