package pmu

import (
	"math"
	"testing"
	"testing/quick"

	"vprobe/internal/numa"
)

func delta(instr, ref, miss float64, node []float64, remote float64) *Delta {
	return &Delta{Instructions: instr, Cycles: instr * 1.2, LLCRef: ref,
		LLCMiss: miss, Node: node, Remote: remote}
}

func TestAddAndSnapshot(t *testing.T) {
	c := NewCounters(2)
	c.Add(delta(1000, 20, 5, []float64{3, 2}, 2))
	c.Add(delta(500, 10, 1, []float64{1, 0}, 0))
	if c.Instructions != 1500 || c.LLCRef != 30 || c.LLCMiss != 6 {
		t.Fatalf("counters = %+v", c)
	}
	if c.Node[0] != 4 || c.Node[1] != 2 {
		t.Fatalf("node counts = %v", c.Node)
	}
	if c.Total() != 6 {
		t.Fatalf("Total = %v", c.Total())
	}
	// A sampler's window is its own copy of the counters, not an alias
	// of the live set.
	s := NewSampler(2)
	s.Sample(c)
	c.Add(delta(1, 1, 1, []float64{1, 1}, 1))
	if w := s.Sample(c); w.Instructions != 1 || w.Node[0] != 1 || w.Node[1] != 1 {
		t.Fatalf("window after one add = %+v, want only the add", w)
	}
}

func TestRPTIMatchesEquation2(t *testing.T) {
	// Eq. 2: R = LLCref/InstrRetired * alpha, alpha = 1000.
	d := delta(2_000_000, 44_820, 0, []float64{0, 0}, 0)
	if got := d.RPTI(); math.Abs(got-22.41) > 1e-9 {
		t.Fatalf("RPTI = %v, want 22.41", got)
	}
	if got := d.Pressure(1000); got != d.RPTI() {
		t.Fatalf("Pressure(1000) = %v != RPTI %v", got, d.RPTI())
	}
	if got := d.Pressure(500); math.Abs(got-11.205) > 1e-9 {
		t.Fatalf("Pressure(500) = %v", got)
	}
}

func TestZeroWindowSafety(t *testing.T) {
	var d Delta
	if d.RPTI() != 0 || d.MissRate() != 0 || d.IPC() != 0 || d.RemoteRatio() != 0 {
		t.Fatal("zero delta should report zeros, not NaN")
	}
	if d.AffinityNode() != numa.NoNode {
		t.Fatalf("AffinityNode of empty window = %v, want NoNode", d.AffinityNode())
	}
}

func TestAffinityNodeArgmax(t *testing.T) {
	d := delta(1, 1, 1, []float64{5, 9, 3}, 0)
	if d.AffinityNode() != 1 {
		t.Fatalf("affinity = %v, want 1", d.AffinityNode())
	}
	// Ties break low.
	d2 := delta(1, 1, 1, []float64{4, 4}, 0)
	if d2.AffinityNode() != 0 {
		t.Fatalf("tie affinity = %v, want 0", d2.AffinityNode())
	}
}

func TestRemoteRatio(t *testing.T) {
	d := delta(1, 1, 1, []float64{30, 70}, 70)
	if got := d.RemoteRatio(); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("remote ratio = %v", got)
	}
}

func TestSamplerWindows(t *testing.T) {
	c := NewCounters(2)
	s := NewSampler(2)
	c.Add(delta(1000, 100, 10, []float64{6, 4}, 4))
	w1 := s.Sample(c)
	if w1.Instructions != 1000 || w1.Node[1] != 4 {
		t.Fatalf("window 1 = %+v", w1)
	}
	c.Add(delta(500, 50, 5, []float64{5, 0}, 0))
	w2 := s.Sample(c)
	if w2.Instructions != 500 || w2.LLCRef != 50 || w2.Node[0] != 5 || w2.Node[1] != 0 {
		t.Fatalf("window 2 = %+v", w2)
	}
	// Empty window.
	w3 := s.Sample(c)
	if w3.Instructions != 0 || w3.AffinityNode() != numa.NoNode {
		t.Fatalf("window 3 = %+v", w3)
	}
}

func TestSamplerSumsToCounters(t *testing.T) {
	check := func(parts []uint16) bool {
		c := NewCounters(2)
		s := NewSampler(2)
		var sumInstr, sumRef float64
		for _, p := range parts {
			d := delta(float64(p), float64(p)/10, float64(p)/100,
				[]float64{float64(p) / 200, float64(p) / 300}, 0)
			c.Add(d)
			w := s.Sample(c)
			sumInstr += w.Instructions
			sumRef += w.LLCRef
		}
		return math.Abs(sumInstr-c.Instructions) < 1e-6 && math.Abs(sumRef-c.LLCRef) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIPCAndMissRate(t *testing.T) {
	d := Delta{Instructions: 100, Cycles: 200, LLCRef: 10, LLCMiss: 4}
	if d.IPC() != 0.5 {
		t.Fatalf("IPC = %v", d.IPC())
	}
	if d.MissRate() != 0.4 {
		t.Fatalf("miss rate = %v", d.MissRate())
	}
}

func TestDeltaString(t *testing.T) {
	d := delta(1000, 100, 10, []float64{6, 4}, 4)
	if s := d.String(); s == "" {
		t.Fatal("empty String()")
	}
}
