package numa

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Decode reads a topology configuration from JSON and builds it.
func Decode(r io.Reader) (*Topology, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("numa: decode topology: %w", err)
	}
	return New(cfg)
}

// LoadFile builds a topology from a JSON file.
func LoadFile(path string) (*Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// Export renders a topology back to its Config, so presets can be
// dumped, edited, and reloaded through LoadFile. Topologies built by New
// are homogeneous (same memory, cache, and link spec everywhere), so the
// round trip Export -> New reproduces the topology exactly.
func Export(t *Topology) Config {
	cfg := Config{
		Name:               t.name,
		Nodes:              len(t.nodes),
		CPUsPerNode:        len(t.cpuNode) / len(t.nodes),
		MemoryPerNodeMB:    t.nodes[0].MemoryMB,
		IMCBandwidthGBs:    t.nodes[0].IMCBandwidthGBs,
		LLCSizeKB:          t.nodes[0].LLCSizeKB,
		ClockGHz:           t.clockGHz,
		LocalMemLatencyNS:  t.localMemLatencyNS,
		RemoteMemLatencyNS: t.remoteMemLatencyNS,
		LLCHitLatencyNS:    t.llcHitLatencyNS,
	}
	if len(t.links) > 0 {
		cfg.LinkBandwidthGTs = t.links[0].BandwidthGTs
		first := t.links[0]
		for _, l := range t.links {
			if l.A == first.A && l.B == first.B {
				cfg.LinksPerPair++
			}
		}
	}
	return cfg
}

// AvailableMB is Gudkov-style available space: the memory a VM allowed to
// span at most maxSplit NUMA nodes can actually use, i.e. the sum of the
// maxSplit largest entries of the per-node free vector. It selects them in
// place, one scan per chunk, leaving the vector untouched and allocating
// nothing: a host has at most 64 nodes and most have 2–8, so a scan of a
// few int64s beats keeping them sorted. maxSplit below 1 is treated as 1.
//
//vprobe:hotpath
func AvailableMB(freePerNodeMB []int64, maxSplit int) int64 {
	// Chunks are taken in (free desc, node asc) order; each scan picks the
	// largest node that comes after the previous pick in that order.
	var avail int64
	prevFree, prevNode := int64(math.MaxInt64), -1
	for i := 0; i < min(max(maxSplit, 1), len(freePerNodeMB)); i++ {
		best := -1
		for n, f := range freePerNodeMB {
			after := f < prevFree || (f == prevFree && n > prevNode)
			if after && (best < 0 || f > freePerNodeMB[best]) {
				best = n
			}
		}
		prevFree, prevNode = freePerNodeMB[best], best
		avail += prevFree
	}
	return avail
}

// Resolve returns a topology for a preset name or, when the name is not a
// preset, treats it as a path to a JSON topology file. This is the lookup
// the CLIs use.
func Resolve(nameOrPath string) (*Topology, error) {
	if mk, ok := Presets[nameOrPath]; ok {
		return mk(), nil
	}
	if _, err := os.Stat(nameOrPath); err == nil {
		return LoadFile(nameOrPath)
	}
	return nil, fmt.Errorf("numa: %q is neither a preset %v nor a readable file",
		nameOrPath, PresetNames())
}
