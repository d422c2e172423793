package numa

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// FileConfig is the JSON schema for user-supplied topologies, mirroring
// Config with lower-camel keys. Example:
//
//	{
//	  "name": "my-box",
//	  "nodes": 2,
//	  "cpusPerNode": 8,
//	  "memoryPerNodeMB": 65536,
//	  "imcBandwidthGBs": 40,
//	  "llcSizeKB": 32768,
//	  "clockGHz": 3.0,
//	  "localMemLatencyNS": 80,
//	  "remoteMemLatencyNS": 140,
//	  "llcHitLatencyNS": 14,
//	  "linkBandwidthGTs": 9.6,
//	  "linksPerPair": 1
//	}
type FileConfig struct {
	Name               string  `json:"name"`
	Nodes              int     `json:"nodes"`
	CPUsPerNode        int     `json:"cpusPerNode"`
	MemoryPerNodeMB    int64   `json:"memoryPerNodeMB"`
	IMCBandwidthGBs    float64 `json:"imcBandwidthGBs"`
	LLCSizeKB          int64   `json:"llcSizeKB"`
	ClockGHz           float64 `json:"clockGHz"`
	LocalMemLatencyNS  float64 `json:"localMemLatencyNS"`
	RemoteMemLatencyNS float64 `json:"remoteMemLatencyNS"`
	LLCHitLatencyNS    float64 `json:"llcHitLatencyNS"`
	LinkBandwidthGTs   float64 `json:"linkBandwidthGTs"`
	LinksPerPair       int     `json:"linksPerPair"`
}

// Config converts the JSON form to the builder's Config.
func (fc FileConfig) Config() Config {
	return Config{
		Name:               fc.Name,
		Nodes:              fc.Nodes,
		CPUsPerNode:        fc.CPUsPerNode,
		MemoryPerNodeMB:    fc.MemoryPerNodeMB,
		IMCBandwidthGBs:    fc.IMCBandwidthGBs,
		LLCSizeKB:          fc.LLCSizeKB,
		ClockGHz:           fc.ClockGHz,
		LocalMemLatencyNS:  fc.LocalMemLatencyNS,
		RemoteMemLatencyNS: fc.RemoteMemLatencyNS,
		LLCHitLatencyNS:    fc.LLCHitLatencyNS,
		LinkBandwidthGTs:   fc.LinkBandwidthGTs,
		LinksPerPair:       fc.LinksPerPair,
	}
}

// Decode reads a topology configuration from JSON and builds it.
func Decode(r io.Reader) (*Topology, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var fc FileConfig
	if err := dec.Decode(&fc); err != nil {
		return nil, fmt.Errorf("numa: decode topology: %w", err)
	}
	top, err := New(fc.Config())
	if err != nil {
		return nil, err
	}
	return top, nil
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

// Export renders a topology back to the JSON file schema, so presets can
// be dumped, edited, and reloaded through LoadFile. Topologies built by
// New are homogeneous (same memory, cache, and link spec everywhere), so
// the round trip Export -> Decode reproduces the topology exactly.
func Export(t *Topology) FileConfig {
	fc := FileConfig{
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
		fc.LinkBandwidthGTs = t.links[0].BandwidthGTs
		first := t.links[0]
		for _, l := range t.links {
			if l.A == first.A && l.B == first.B {
				fc.LinksPerPair++
			}
		}
	}
	return fc
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
