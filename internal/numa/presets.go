package numa

import "sort"

// XeonE5620 reproduces Table I of the paper: a two-socket Intel Xeon E5620
// machine (4 cores per socket at 2.40 GHz, 12 MB shared L3 per socket,
// 12 GB DRAM per node behind a 25.6 GB/s IMC, 2 QPI links at 5.86 GT/s).
//
// The base latencies are typical published Nehalem-EP numbers: ~65 ns local
// DRAM, ~105 ns remote (one QPI hop); the absolute values only set the
// scale of the model, the local/remote ratio is what shapes the results.
func XeonE5620() *Topology {
	return MustNew(Config{
		Name:               "Intel Xeon E5620 (Table I)",
		Nodes:              2,
		CPUsPerNode:        4,
		MemoryPerNodeMB:    12 * 1024,
		IMCBandwidthGBs:    25.6,
		LLCSizeKB:          12 * 1024,
		ClockGHz:           2.40,
		LocalMemLatencyNS:  65,
		RemoteMemLatencyNS: 138,
		LLCHitLatencyNS:    15,
		LinkBandwidthGTs:   5.86,
		LinksPerPair:       2,
	})
}

// FourNode is a synthetic 4-node machine used to exercise the N > 2 code
// paths of the partitioning and load-balance algorithms (the paper's
// algorithms are written for arbitrary N).
func FourNode() *Topology {
	return MustNew(Config{
		Name:               "synthetic 4-node",
		Nodes:              4,
		CPUsPerNode:        4,
		MemoryPerNodeMB:    16 * 1024,
		IMCBandwidthGBs:    25.6,
		LLCSizeKB:          12 * 1024,
		ClockGHz:           2.40,
		LocalMemLatencyNS:  65,
		RemoteMemLatencyNS: 120,
		LLCHitLatencyNS:    15,
		LinkBandwidthGTs:   5.86,
		LinksPerPair:       1,
	})
}

// SingleNode is a degenerate UMA machine, useful for failure-injection
// tests: NUMA-aware policies must not misbehave when there is nowhere to
// migrate.
func SingleNode() *Topology {
	return MustNew(Config{
		Name:               "single-node UMA",
		Nodes:              1,
		CPUsPerNode:        8,
		MemoryPerNodeMB:    24 * 1024,
		IMCBandwidthGBs:    25.6,
		LLCSizeKB:          12 * 1024,
		ClockGHz:           2.40,
		LocalMemLatencyNS:  65,
		RemoteMemLatencyNS: 65,
		LLCHitLatencyNS:    15,
		LinkBandwidthGTs:   5.86,
		LinksPerPair:       1,
	})
}

// PresetNames lists the preset names, sorted.
func PresetNames() []string {
	names := make([]string, 0, len(Presets))
	for n := range Presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Presets maps preset names to constructors, for CLI use.
var Presets = map[string]func() *Topology{
	"xeon-e5620": XeonE5620,
	"four-node":  FourNode,
	"uma":        SingleNode,
}
