package numa

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
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

// AvailableMB is the from-scratch Gudkov-style available-space
// computation: the memory a VM allowed to span at most maxSplit NUMA
// nodes can actually use, i.e. the sum of the maxSplit largest entries of
// the per-node free vector. It copies and sorts, so it costs O(n log n)
// and allocates — it is the reference semantics that FreeIndex.TopSum
// reproduces incrementally, kept as the definition the randomized
// cross-check in freeindex_test.go and the cluster's -place-check shadow
// mode compare against. maxSplit below 1 is treated as 1.
func AvailableMB(freePerNodeMB []int64, maxSplit int) int64 {
	if maxSplit < 1 {
		maxSplit = 1
	}
	//vet:alloc the from-scratch fallback copies so the caller's vector stays untouched; the hot path uses FreeIndex.TopSum instead
	free := append([]int64(nil), freePerNodeMB...)
	//vet:alloc sort.Slice's interface conversion and closure live only on the fallback path
	sort.Slice(free, func(i, j int) bool { return free[i] > free[j] })
	var avail int64
	for i := 0; i < maxSplit && i < len(free); i++ {
		avail += free[i]
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
