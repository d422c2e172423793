// Package numa models the hardware substrate the paper's testbed runs on:
// a multi-socket NUMA machine with per-node memory controllers, a shared
// last-level cache per socket, and an inter-socket interconnect (QPI).
//
// The topology is pure data plus a latency model. Contention dynamics
// (memory-controller and link queuing) live in internal/perf; this package
// only describes capacities and base latencies.
package numa

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// NodeID identifies a NUMA node. Nodes are numbered 0..N-1.
type NodeID int

// CPUID identifies a physical CPU (core). PCPUs are numbered 0..P-1 across
// the whole machine; the topology maps each to its node.
type CPUID int

// NoNode is the sentinel for "no node assigned".
const NoNode NodeID = -1

// NodeSpec describes one NUMA node.
type NodeSpec struct {
	ID       NodeID
	CPUs     []CPUID // physical CPUs on this node (one socket in Table I)
	MemoryMB int64   // local DRAM capacity
	// IMCBandwidthGBs is the integrated memory controller bandwidth in
	// GB/s. Contention multiplies effective latency as utilization of
	// this bandwidth grows.
	IMCBandwidthGBs float64
	// LLCSizeKB is the size of the last-level cache shared by all CPUs
	// on this node (socket).
	LLCSizeKB int64
}

// LinkSpec describes one interconnect link between two nodes.
type LinkSpec struct {
	A, B NodeID
	// BandwidthGTs is the raw transfer rate in gigatransfers/s (QPI
	// convention); used only as a capacity for the contention model.
	BandwidthGTs float64
}

// Topology is an immutable description of the machine.
type Topology struct {
	name  string
	nodes []NodeSpec
	links []LinkSpec

	cpuNode []NodeID // indexed by CPUID

	clockGHz float64

	// Base (uncontended) latencies in nanoseconds.
	localMemLatencyNS  float64
	remoteMemLatencyNS float64
	llcHitLatencyNS    float64

	// distance[i][j] is a relative access-cost factor (ACPI SLIT style:
	// 10 = local).
	distance [][]int
}

// Config is the input for building a Topology.
type Config struct {
	Name               string
	Nodes              int
	CPUsPerNode        int
	MemoryPerNodeMB    int64
	IMCBandwidthGBs    float64
	LLCSizeKB          int64
	ClockGHz           float64
	LocalMemLatencyNS  float64
	RemoteMemLatencyNS float64
	LLCHitLatencyNS    float64
	LinkBandwidthGTs   float64
	// LinksPerPair is the number of parallel interconnect links between
	// each node pair (Table I lists 2 QPI links).
	LinksPerPair int
}

// Size caps on a Config, so building one stays bounded: New allocates
// Nodes × CPUsPerNode CPUs, Nodes² distances and Nodes²/2 × LinksPerPair
// links.
const (
	maxNodes        = 64
	maxCPUs         = 1024
	maxLinksPerPair = 8
)

// Validate reports the first problem with the configuration, or nil.
func (c *Config) Validate() error {
	for _, v := range []float64{c.IMCBandwidthGBs, c.ClockGHz, c.LocalMemLatencyNS,
		c.RemoteMemLatencyNS, c.LLCHitLatencyNS, c.LinkBandwidthGTs} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("numa: a bandwidth, clock or latency is NaN or infinite")
		}
	}
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("numa: Nodes = %d, need >= 1", c.Nodes)
	case c.Nodes > maxNodes:
		return fmt.Errorf("numa: Nodes = %d, at most %d", c.Nodes, maxNodes)
	case c.LinksPerPair > maxLinksPerPair:
		return fmt.Errorf("numa: LinksPerPair = %d, at most %d", c.LinksPerPair, maxLinksPerPair)
	case c.CPUsPerNode <= 0:
		return fmt.Errorf("numa: CPUsPerNode = %d, need >= 1", c.CPUsPerNode)
	case c.CPUsPerNode > maxCPUs/c.Nodes:
		return fmt.Errorf("numa: %d nodes × CPUsPerNode %d, at most %d CPUs", c.Nodes, c.CPUsPerNode, maxCPUs)
	case c.MemoryPerNodeMB <= 0:
		return fmt.Errorf("numa: MemoryPerNodeMB = %d, need > 0", c.MemoryPerNodeMB)
	case c.ClockGHz <= 0:
		return fmt.Errorf("numa: ClockGHz = %v, need > 0", c.ClockGHz)
	case c.LocalMemLatencyNS <= 0:
		return fmt.Errorf("numa: LocalMemLatencyNS = %v, need > 0", c.LocalMemLatencyNS)
	case c.Nodes > 1 && c.RemoteMemLatencyNS < c.LocalMemLatencyNS:
		return fmt.Errorf("numa: RemoteMemLatencyNS %v < LocalMemLatencyNS %v",
			c.RemoteMemLatencyNS, c.LocalMemLatencyNS)
	case c.LLCSizeKB <= 0:
		return fmt.Errorf("numa: LLCSizeKB = %d, need > 0", c.LLCSizeKB)
	case c.IMCBandwidthGBs <= 0:
		return fmt.Errorf("numa: IMCBandwidthGBs = %v, need > 0", c.IMCBandwidthGBs)
	}
	return nil
}

// New builds a Topology from the configuration.
func New(c Config) (*Topology, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.LinksPerPair <= 0 {
		c.LinksPerPair = 1
	}
	t := &Topology{
		name:               c.Name,
		clockGHz:           c.ClockGHz,
		localMemLatencyNS:  c.LocalMemLatencyNS,
		remoteMemLatencyNS: c.RemoteMemLatencyNS,
		llcHitLatencyNS:    c.LLCHitLatencyNS,
	}
	if t.llcHitLatencyNS <= 0 {
		t.llcHitLatencyNS = 15
	}
	cpu := CPUID(0)
	for n := 0; n < c.Nodes; n++ {
		spec := NodeSpec{
			ID:              NodeID(n),
			MemoryMB:        c.MemoryPerNodeMB,
			IMCBandwidthGBs: c.IMCBandwidthGBs,
			LLCSizeKB:       c.LLCSizeKB,
		}
		for i := 0; i < c.CPUsPerNode; i++ {
			spec.CPUs = append(spec.CPUs, cpu)
			t.cpuNode = append(t.cpuNode, NodeID(n))
			cpu++
		}
		t.nodes = append(t.nodes, spec)
	}
	for a := 0; a < c.Nodes; a++ {
		for b := a + 1; b < c.Nodes; b++ {
			for l := 0; l < c.LinksPerPair; l++ {
				t.links = append(t.links, LinkSpec{
					A: NodeID(a), B: NodeID(b), BandwidthGTs: c.LinkBandwidthGTs,
				})
			}
		}
	}
	t.distance = make([][]int, c.Nodes)
	ratio := 10
	if c.Nodes > 1 && c.LocalMemLatencyNS > 0 {
		ratio = int(10*c.RemoteMemLatencyNS/c.LocalMemLatencyNS + 0.5)
	}
	for i := range t.distance {
		t.distance[i] = make([]int, c.Nodes)
		for j := range t.distance[i] {
			if i == j {
				t.distance[i][j] = 10
			} else {
				t.distance[i][j] = ratio
			}
		}
	}
	return t, nil
}

// MustNew is New for known-good configurations (presets, tests).
func MustNew(c Config) *Topology {
	t, err := New(c)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the topology's human-readable name.
func (t *Topology) Name() string { return t.name }

// NumNodes returns the node count.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumCPUs returns the total physical CPU count.
func (t *Topology) NumCPUs() int { return len(t.cpuNode) }

// Node returns the spec for node id.
func (t *Topology) Node(id NodeID) NodeSpec { return t.nodes[id] }

// Nodes returns all node specs in id order.
func (t *Topology) Nodes() []NodeSpec { return t.nodes }

// Links returns all interconnect links.
func (t *Topology) Links() []LinkSpec { return t.links }

// NodeOf returns the node hosting the given CPU.
func (t *Topology) NodeOf(cpu CPUID) NodeID { return t.cpuNode[cpu] }

// CPUsOf returns the CPUs on node id.
func (t *Topology) CPUsOf(id NodeID) []CPUID { return t.nodes[id].CPUs }

// ClockGHz returns the core clock rate in GHz.
func (t *Topology) ClockGHz() float64 { return t.clockGHz }

// CyclesPerMicrosecond converts the clock rate to cycles/µs.
func (t *Topology) CyclesPerMicrosecond() float64 { return t.clockGHz * 1000 }

// LLCSizeKB returns the shared LLC capacity of the socket hosting node id.
func (t *Topology) LLCSizeKB(id NodeID) int64 { return t.nodes[id].LLCSizeKB }

// Distance returns the SLIT-style distance factor between nodes (10 = local).
func (t *Topology) Distance(a, b NodeID) int { return t.distance[a][b] }

// MemLatencyNS returns the uncontended latency in nanoseconds for a CPU on
// node from accessing memory on node to.
func (t *Topology) MemLatencyNS(from, to NodeID) float64 {
	if from == to {
		return t.localMemLatencyNS
	}
	return t.remoteMemLatencyNS
}

// LLCHitLatencyNS returns the uncontended LLC hit latency.
func (t *Topology) LLCHitLatencyNS() float64 { return t.llcHitLatencyNS }

// MemLatencyCycles converts MemLatencyNS to core cycles.
func (t *Topology) MemLatencyCycles(from, to NodeID) float64 {
	return t.MemLatencyNS(from, to) * t.clockGHz
}

// LLCHitLatencyCycles converts LLCHitLatencyNS to core cycles.
func (t *Topology) LLCHitLatencyCycles() float64 {
	return t.llcHitLatencyNS * t.clockGHz
}

// RemotePenaltyCycles is the extra cycles a remote access costs over local.
func (t *Topology) RemotePenaltyCycles() float64 {
	return (t.remoteMemLatencyNS - t.localMemLatencyNS) * t.clockGHz
}

// TotalMemoryMB returns machine-wide DRAM capacity.
func (t *Topology) TotalMemoryMB() int64 {
	var total int64
	for _, n := range t.nodes {
		total += n.MemoryMB
	}
	return total
}

// String renders a short multi-line description of the machine.
func (t *Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d nodes, %d cpus @ %.2f GHz\n",
		t.name, t.NumNodes(), t.NumCPUs(), t.clockGHz)
	for _, n := range t.nodes {
		fmt.Fprintf(&b, "  node %d: cpus %v, %d MB, LLC %d KB, IMC %.1f GB/s\n",
			n.ID, n.CPUs, n.MemoryMB, n.LLCSizeKB, n.IMCBandwidthGBs)
	}
	fmt.Fprintf(&b, "  links: %d, local/remote latency %.0f/%.0f ns",
		len(t.links), t.localMemLatencyNS, t.remoteMemLatencyNS)
	return b.String()
}
