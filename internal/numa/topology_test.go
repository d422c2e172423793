package numa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestXeonE5620MatchesTableI(t *testing.T) {
	top := XeonE5620()
	if top.NumNodes() != 2 {
		t.Fatalf("nodes = %d, want 2", top.NumNodes())
	}
	if top.NumCPUs() != 8 {
		t.Fatalf("cpus = %d, want 8 (2 sockets x 4 cores)", top.NumCPUs())
	}
	if top.ClockGHz() != 2.40 {
		t.Fatalf("clock = %v, want 2.40", top.ClockGHz())
	}
	for _, n := range top.Nodes() {
		if n.LLCSizeKB != 12*1024 {
			t.Fatalf("LLC = %d KB, want 12 MB", n.LLCSizeKB)
		}
		if n.MemoryMB != 12*1024 {
			t.Fatalf("node memory = %d MB, want 12 GB", n.MemoryMB)
		}
		if n.IMCBandwidthGBs != 25.6 {
			t.Fatalf("IMC bandwidth = %v, want 25.6", n.IMCBandwidthGBs)
		}
		if len(n.CPUs) != 4 {
			t.Fatalf("cpus on node %d = %d, want 4", n.ID, len(n.CPUs))
		}
	}
	if len(top.Links()) != 2 {
		t.Fatalf("links = %d, want 2 QPI links", len(top.Links()))
	}
	for _, l := range top.Links() {
		if l.BandwidthGTs != 5.86 {
			t.Fatalf("link bandwidth = %v, want 5.86 GT/s", l.BandwidthGTs)
		}
	}
	if top.TotalMemoryMB() != 24*1024 {
		t.Fatalf("total memory = %d MB, want 24 GB", top.TotalMemoryMB())
	}
}

func TestNodeOfMapping(t *testing.T) {
	top := XeonE5620()
	for n := 0; n < top.NumNodes(); n++ {
		for _, cpu := range top.CPUsOf(NodeID(n)) {
			if top.NodeOf(cpu) != NodeID(n) {
				t.Fatalf("NodeOf(%d) = %d, want %d", cpu, top.NodeOf(cpu), n)
			}
		}
	}
	// CPUs are numbered contiguously.
	if top.NodeOf(0) != 0 || top.NodeOf(3) != 0 || top.NodeOf(4) != 1 || top.NodeOf(7) != 1 {
		t.Fatal("contiguous CPU numbering broken")
	}
}

func TestLatencyModel(t *testing.T) {
	top := XeonE5620()
	local := top.MemLatencyNS(0, 0)
	remote := top.MemLatencyNS(0, 1)
	if local != 65 || remote != 138 {
		t.Fatalf("local/remote = %v/%v, want 65/138 (loaded-Nehalem calibration)", local, remote)
	}
	if top.MemLatencyNS(1, 0) != remote {
		t.Fatal("latency not symmetric")
	}
	if got := top.MemLatencyCycles(0, 0); got != 65*2.40 {
		t.Fatalf("local cycles = %v", got)
	}
	if top.LLCHitLatencyCycles() != 15*2.40 {
		t.Fatalf("llc hit cycles = %v", top.LLCHitLatencyCycles())
	}
}

func TestDistanceMatrixProperties(t *testing.T) {
	for name, mk := range Presets {
		top := mk()
		n := top.NumNodes()
		for i := 0; i < n; i++ {
			if top.Distance(NodeID(i), NodeID(i)) != 10 {
				t.Fatalf("%s: diagonal distance != 10", name)
			}
			for j := 0; j < n; j++ {
				if top.Distance(NodeID(i), NodeID(j)) != top.Distance(NodeID(j), NodeID(i)) {
					t.Fatalf("%s: distance not symmetric", name)
				}
				if i != j && top.Distance(NodeID(i), NodeID(j)) < 10 {
					t.Fatalf("%s: remote distance < local", name)
				}
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	base := Config{
		Nodes: 2, CPUsPerNode: 4, MemoryPerNodeMB: 1024,
		IMCBandwidthGBs: 25.6, LLCSizeKB: 12288, ClockGHz: 2.4,
		LocalMemLatencyNS: 65, RemoteMemLatencyNS: 105,
	}
	if _, err := New(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(c *Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.CPUsPerNode = 0 },
		func(c *Config) { c.MemoryPerNodeMB = 0 },
		func(c *Config) { c.ClockGHz = 0 },
		func(c *Config) { c.LocalMemLatencyNS = 0 },
		func(c *Config) { c.RemoteMemLatencyNS = 10 }, // < local
		func(c *Config) { c.LLCSizeKB = 0 },
		func(c *Config) { c.IMCBandwidthGBs = 0 },
	}
	for i, mutate := range bad {
		c := base
		mutate(&c)
		if _, err := New(c); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestSingleNodeRemoteEqualsLocal(t *testing.T) {
	top := SingleNode()
	if top.NumNodes() != 1 {
		t.Fatalf("nodes = %d", top.NumNodes())
	}
	if top.remoteMemLatencyNS != top.localMemLatencyNS {
		t.Fatalf("UMA remote latency %v, local %v", top.remoteMemLatencyNS, top.localMemLatencyNS)
	}
}

func TestFourNodeLinkCount(t *testing.T) {
	top := FourNode()
	// Full mesh: C(4,2) = 6 pairs x 1 link.
	if len(top.Links()) != 6 {
		t.Fatalf("links = %d, want 6", len(top.Links()))
	}
	if top.NumCPUs() != 16 {
		t.Fatalf("cpus = %d, want 16", top.NumCPUs())
	}
}

func TestCPUNodePartition(t *testing.T) {
	// Every CPU belongs to exactly one node; union of node CPU lists is
	// the full CPU set.
	check := func(nodes8, cpus8 uint8) bool {
		nodes := int(nodes8%4) + 1
		cpus := int(cpus8%4) + 1
		top := MustNew(Config{
			Nodes: nodes, CPUsPerNode: cpus, MemoryPerNodeMB: 1024,
			IMCBandwidthGBs: 10, LLCSizeKB: 1024, ClockGHz: 2,
			LocalMemLatencyNS: 60, RemoteMemLatencyNS: 100,
		})
		seen := make(map[CPUID]int)
		for _, n := range top.Nodes() {
			for _, c := range n.CPUs {
				seen[c]++
				if top.NodeOf(c) != n.ID {
					return false
				}
			}
		}
		if len(seen) != top.NumCPUs() {
			return false
		}
		for _, count := range seen {
			if count != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringContainsEssentials(t *testing.T) {
	s := XeonE5620().String()
	for _, want := range []string{"2 nodes", "8 cpus", "2.40 GHz", "12288 KB"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestPresetsRegistry(t *testing.T) {
	for name, mk := range Presets {
		top := mk()
		if top == nil {
			t.Fatalf("preset %q returned nil", name)
		}
		if top.NumCPUs() == 0 {
			t.Fatalf("preset %q has no CPUs", name)
		}
	}
}
