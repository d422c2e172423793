// Package pmu models virtualized performance-monitoring counters in the
// style of Perfctr-Xen (Nikolaev & Back, VEE'11): each VCPU owns a counter
// set that is saved and restored across context switches, so the values a
// scheduler reads are attributable to that VCPU alone.
//
// The counters tracked are exactly the ones vProbe's PMU data analyzer
// consumes: LLC references, LLC misses, instructions retired, cycles, and
// per-NUMA-node memory access counts (the N(vc,i) of Eq. 1).
package pmu

import (
	"fmt"

	"vprobe/internal/numa"
)

// Counters is a monotonically accumulating counter set. Values are float64
// because the performance model produces fractional expected counts; the
// hardware analogy is unchanged (sums over a window).
type Counters struct {
	Instructions float64
	Cycles       float64
	LLCRef       float64
	LLCMiss      float64
	// Node[i] is the number of memory accesses served by node i.
	Node []float64
	// Remote is the number of accesses served by a node other than the
	// one the VCPU was running on at access time.
	Remote float64
}

// NewCounters returns a zeroed counter set for a machine with nodes nodes.
func NewCounters(nodes int) *Counters {
	return &Counters{Node: make([]float64, nodes)}
}

// Add accumulates d into c. The node vectors must have equal length.
func (c *Counters) Add(d *Delta) {
	c.Instructions += d.Instructions
	c.Cycles += d.Cycles
	c.LLCRef += d.LLCRef
	c.LLCMiss += d.LLCMiss
	c.Remote += d.Remote
	for i := range d.Node {
		c.Node[i] += d.Node[i]
	}
}

// Total returns the total memory access count (== LLC misses in this
// model: every miss is a memory access).
func (c *Counters) Total() float64 { return c.LLCMiss }

// Delta is the change in a counter set over a window; structurally the
// same fields as Counters.
type Delta struct {
	Instructions float64
	Cycles       float64
	LLCRef       float64
	LLCMiss      float64
	Node         []float64
	Remote       float64
}

// RPTI returns LLC references per thousand instructions over the window,
// i.e. the paper's Eq. 2 with α = 1000. Zero instructions yield zero.
func (d Delta) RPTI() float64 {
	if d.Instructions <= 0 {
		return 0
	}
	return d.LLCRef / d.Instructions * 1000
}

// Pressure returns the paper's LLC access pressure R = LLCref/Instr * α.
func (d Delta) Pressure(alpha float64) float64 {
	if d.Instructions <= 0 {
		return 0
	}
	return d.LLCRef / d.Instructions * alpha
}

// MissRate returns LLC misses / references, or 0 with no references.
func (d Delta) MissRate() float64 {
	if d.LLCRef <= 0 {
		return 0
	}
	return d.LLCMiss / d.LLCRef
}

// IPC returns instructions per cycle over the window.
func (d Delta) IPC() float64 {
	if d.Cycles <= 0 {
		return 0
	}
	return d.Instructions / d.Cycles
}

// AffinityNode returns the node with the maximum access count (Eq. 1),
// breaking ties toward the lowest id. With no accesses at all it returns
// numa.NoNode so callers can distinguish "no signal".
func (d Delta) AffinityNode() numa.NodeID {
	best := numa.NoNode
	var bestVal float64
	for i, v := range d.Node {
		if v > 0 && (best == numa.NoNode || v > bestVal) {
			best = numa.NodeID(i)
			bestVal = v
		}
	}
	return best
}

// RemoteRatio returns remote accesses / total accesses, or 0 with none.
func (d Delta) RemoteRatio() float64 {
	var total float64
	for _, v := range d.Node {
		total += v
	}
	if total <= 0 {
		return 0
	}
	return d.Remote / total
}

// String summarises the window.
func (d Delta) String() string {
	return fmt.Sprintf("instr=%.3g llcref=%.3g miss=%.3g remote=%.0f%% rpti=%.2f",
		d.Instructions, d.LLCRef, d.LLCMiss, 100*d.RemoteRatio(), d.RPTI())
}

// Sampler extracts per-window deltas from an accumulating counter set, the
// way vProbe samples each VCPU at the end of every sampling period.
type Sampler struct {
	// last is the counter set at the previous Sample; its Node vector is
	// the sampler's own.
	last Counters
	// node is the reusable Node vector of the Delta Sample returns.
	node []float64
}

// NewSampler returns a sampler whose first Sample covers everything
// accumulated so far on the given counter set.
func NewSampler(nodes int) *Sampler {
	buf := make([]float64, 2*nodes) // one allocation for both vectors
	return &Sampler{
		last: Counters{Node: buf[:nodes:nodes]},
		node: buf[nodes:],
	}
}

// Sample returns the delta since the previous Sample (or since counter
// creation) and advances the window. The delta's Node vector is the
// sampler's own and is overwritten by its next Sample, so a sampler on a
// fixed node count samples without allocating.
func (s *Sampler) Sample(cur *Counters) Delta {
	if cap(s.node) < len(cur.Node) {
		s.node = make([]float64, len(cur.Node)) //vet:alloc only for a counter set wider than NewSampler's node count
	}
	d := Delta{
		Instructions: cur.Instructions - s.last.Instructions,
		Cycles:       cur.Cycles - s.last.Cycles,
		LLCRef:       cur.LLCRef - s.last.LLCRef,
		LLCMiss:      cur.LLCMiss - s.last.LLCMiss,
		Remote:       cur.Remote - s.last.Remote,
		Node:         s.node[:len(cur.Node)],
	}
	for i := range cur.Node {
		d.Node[i] = cur.Node[i] - s.last.Node[i]
	}
	node := s.last.Node
	s.last = *cur
	s.last.Node = append(node[:0], cur.Node...) //vet:alloc only for a counter set wider than NewSampler's node count
	return d
}
