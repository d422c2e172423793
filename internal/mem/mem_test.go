package mem

import (
	"math"
	"testing"
	"testing/quick"

	"vprobe/internal/numa"
	"vprobe/internal/sim"
)

func TestUniformAndConcentrated(t *testing.T) {
	u := Uniform(4)
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, f := range u {
		if f != 0.25 {
			t.Fatalf("uniform = %v", u)
		}
	}
	c := Concentrated(2, 1)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.LocalFraction(1) != 1 || c.LocalFraction(0) != 0 {
		t.Fatalf("concentrated = %v", c)
	}
	if c.Home() != 1 {
		t.Fatalf("Home = %v", c.Home())
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []Dist{
		{},
		{0.5, 0.4},          // sums to 0.9
		{1.5, -0.5},         // negative entry
		{math.NaN(), 1},     // NaN
		{math.Inf(1), -0.1}, // Inf
	}
	for i, d := range cases {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d accepted: %v", i, d)
		}
	}
}

func TestNormalize(t *testing.T) {
	d := Dist{2, 6}
	d.Normalize()
	if d[0] != 0.25 || d[1] != 0.75 {
		t.Fatalf("normalized = %v", d)
	}
	z := Dist{0, 0, 0}
	z.Normalize()
	for _, f := range z {
		if math.Abs(f-1.0/3) > 1e-12 {
			t.Fatalf("zero vector normalized = %v", z)
		}
	}
	neg := Dist{-1, 1}
	neg.Normalize()
	if neg[0] != 0 || neg[1] != 1 {
		t.Fatalf("negative entries should clamp: %v", neg)
	}
}

func TestRemoteFraction(t *testing.T) {
	d := Dist{0.8, 0.2}
	if got := d.RemoteFraction(0); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("remote from node0 = %v", got)
	}
	if got := d.RemoteFraction(1); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("remote from node1 = %v", got)
	}
	if got := d.RemoteFraction(numa.NodeID(9)); got != 1 {
		t.Fatalf("remote from invalid node = %v, want 1", got)
	}
}

func TestHomeTieBreaksLow(t *testing.T) {
	d := Dist{0.5, 0.5}
	if d.Home() != 0 {
		t.Fatalf("tie should pick lowest id, got %v", d.Home())
	}
}

func TestBlendProperties(t *testing.T) {
	check := func(w float64, a0, b0 uint8) bool {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return true
		}
		a := Dist{float64(a0%100) / 100, 1 - float64(a0%100)/100}
		b := Dist{float64(b0%100) / 100, 1 - float64(b0%100)/100}
		out := Blend(a, b, w)
		return out.Validate() == nil
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	// w=1 returns a, w=0 returns b.
	a, b := Dist{1, 0}, Dist{0, 1}
	if got := Blend(a, b, 1); got[0] != 1 {
		t.Fatalf("Blend w=1 = %v", got)
	}
	if got := Blend(a, b, 0); got[1] != 1 {
		t.Fatalf("Blend w=0 = %v", got)
	}
}

func TestShiftToward(t *testing.T) {
	d := Dist{0.5, 0.5}
	d.ShiftToward(0, 0.5)
	if math.Abs(d[0]-0.75) > 1e-12 || math.Abs(d[1]-0.25) > 1e-12 {
		t.Fatalf("shift = %v", d)
	}
	d.ShiftToward(0, 1)
	if math.Abs(d[0]-1) > 1e-12 {
		t.Fatalf("full shift = %v", d)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Clamped amounts.
	e := Dist{0.5, 0.5}
	e.ShiftToward(1, 2)
	if math.Abs(e[1]-1) > 1e-12 {
		t.Fatalf("over-shift = %v", e)
	}
	f := Dist{0.5, 0.5}
	f.ShiftToward(1, -1)
	if f[1] != 0.5 {
		t.Fatalf("negative shift changed dist: %v", f)
	}
}

func TestRemotePageRatio(t *testing.T) {
	// Soplex-like: r=0.5, k=2.1 -> ~76.7% (paper: 77.41%).
	got := RemotePageRatio(0.5, 2.1)
	if math.Abs(got-0.7667) > 0.01 {
		t.Fatalf("RemotePageRatio(0.5, 2.1) = %v", got)
	}
	// Monotone in both arguments, bounded in [0,1].
	check := func(r, k float64) bool {
		if math.IsNaN(r) || math.IsNaN(k) || math.IsInf(r, 0) || math.IsInf(k, 0) {
			return true
		}
		v := RemotePageRatio(r, k)
		if v < 0 || v > 1 {
			return false
		}
		return RemotePageRatio(math.Min(1, math.Abs(r)), 3) >= RemotePageRatio(math.Min(1, math.Abs(r)), 2)-1e-12
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	if RemotePageRatio(0, 5) != 0 {
		t.Fatal("zero remote access should give zero page ratio")
	}
	if RemotePageRatio(1, 1) != 1 {
		t.Fatal("all-remote should give page ratio 1")
	}
}

func newAlloc(t *testing.T) *Allocator {
	t.Helper()
	return NewAllocator(numa.XeonE5620())
}

func TestAllocFillPacksNodeZero(t *testing.T) {
	a := newAlloc(t)
	d, err := a.Alloc(8*1024, PolicyFill, numa.NoNode)
	if err != nil {
		t.Fatal(err)
	}
	if d[0] != 1 || d[1] != 0 {
		t.Fatalf("fill dist = %v, want all on node 0", d)
	}
	// Next 8 GB spills: 4 GB left on node 0, 4 GB on node 1.
	d2, err := a.Alloc(8*1024, PolicyFill, numa.NoNode)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d2[0]-0.5) > 1e-9 || math.Abs(d2[1]-0.5) > 1e-9 {
		t.Fatalf("spill dist = %v, want 50/50", d2)
	}
	if a.FreeMB(0) != 0 {
		t.Fatalf("node 0 free = %d, want 0", a.FreeMB(0))
	}
}

func TestAllocStripe(t *testing.T) {
	a := newAlloc(t)
	d, err := a.Alloc(8*1024, PolicyStripe, numa.NoNode)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d[0]-0.5) > 1e-9 || math.Abs(d[1]-0.5) > 1e-9 {
		t.Fatalf("stripe dist = %v", d)
	}
	// 15 GB VM1 from the paper: striped over 24 GB total works and is
	// roughly even.
	d2, err := a.Alloc(15*1024-8, PolicyStripe, numa.NoNode)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocLocal(t *testing.T) {
	a := newAlloc(t)
	d, err := a.Alloc(4*1024, PolicyLocal, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d[1] != 1 {
		t.Fatalf("local dist = %v", d)
	}
	// Preferred full -> spill.
	if _, err := a.Alloc(8*1024, PolicyLocal, 1); err != nil {
		t.Fatal(err)
	}
	d3, err := a.Alloc(2*1024, PolicyLocal, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d3[0] != 1 {
		t.Fatalf("spill-from-full dist = %v", d3)
	}
	if _, err := a.Alloc(10, PolicyLocal, numa.NodeID(7)); err == nil {
		t.Fatal("invalid preferred node accepted")
	}
}

func TestAllocErrors(t *testing.T) {
	a := newAlloc(t)
	if _, err := a.Alloc(0, PolicyFill, numa.NoNode); err == nil {
		t.Fatal("zero-size allocation accepted")
	}
	if _, err := a.Alloc(25*1024, PolicyFill, numa.NoNode); err == nil {
		t.Fatal("oversized allocation accepted")
	}
	if _, err := a.Alloc(10, Policy(42), numa.NoNode); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestTake pins the placement arithmetic Alloc and the cluster's what-if
// planning share: fill spills upward, local spills in fill order from
// node 0, stripe spreads evenly, and an overfull request reports its
// shortfall after taking everything.
func TestTake(t *testing.T) {
	cases := []struct {
		name      string
		free      []int64
		size      int64
		policy    Policy
		preferred numa.NodeID
		takes     []int64
		short     int64
	}{
		{"fill", []int64{100, 100, 100}, 150, PolicyFill, numa.NoNode, []int64{100, 50, 0}, 0},
		{"local", []int64{100, 100, 100}, 120, PolicyLocal, 2, []int64{20, 0, 100}, 0},
		{"local without a node", []int64{100, 100}, 120, PolicyLocal, numa.NoNode, []int64{100, 20}, 0},
		{"stripe", []int64{100, 100, 100}, 90, PolicyStripe, numa.NoNode, []int64{30, 30, 30}, 0},
		{"stripe around a full node", []int64{100, 0, 10}, 60, PolicyStripe, numa.NoNode, []int64{50, 0, 10}, 0},
		{"overfull fill", []int64{10, 10}, 50, PolicyFill, numa.NoNode, []int64{10, 10}, 30},
		{"unknown policy", []int64{10, 10}, 5, Policy(42), numa.NoNode, []int64{0, 0}, 5},
	}
	for _, tc := range cases {
		free := append([]int64(nil), tc.free...)
		takes, short := Take(free, tc.size, tc.policy, tc.preferred)
		if short != tc.short {
			t.Errorf("%s: short %d, want %d", tc.name, short, tc.short)
		}
		for n := range tc.takes {
			if takes[n] != tc.takes[n] {
				t.Errorf("%s: takes %v, want %v", tc.name, takes, tc.takes)
				break
			}
			if free[n] != tc.free[n]-tc.takes[n] {
				t.Errorf("%s: free %v after takes %v from %v", tc.name, free, takes, tc.free)
				break
			}
		}
	}
}

func TestAllocConservesCapacity(t *testing.T) {
	check := func(sz16 uint16, pol8 uint8) bool {
		a := NewAllocator(numa.XeonE5620())
		total := a.TotalFreeMB()
		size := int64(sz16%20000) + 1
		pol := Policy(int(pol8) % 3)
		d, err := a.Alloc(size, pol, 0)
		if err != nil {
			return a.TotalFreeMB() == total // failed alloc must not leak
		}
		if d.Validate() != nil {
			return false
		}
		if a.TotalFreeMB() != total-size {
			return false
		}
		a.Release(d, size)
		return a.TotalFreeMB() == total
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFirstTouch(t *testing.T) {
	vm := Dist{0.5, 0.5}
	d := FirstTouch(vm, 0, 0.8)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// 0.8*[1,0] + 0.2*[0.5,0.5] = [0.9, 0.1]
	if math.Abs(d[0]-0.9) > 1e-9 {
		t.Fatalf("first-touch dist = %v", d)
	}
	// Start node without VM memory: follows VM layout.
	vm2 := Dist{1, 0}
	d2 := FirstTouch(vm2, 1, 0.8)
	if d2[0] != 1 {
		t.Fatalf("first-touch on empty node = %v", d2)
	}
	// Zero locality reproduces the VM layout.
	d3 := FirstTouch(vm, 1, 0)
	if math.Abs(d3[0]-0.5) > 1e-9 {
		t.Fatalf("zero-locality dist = %v", d3)
	}
}

func TestMigratorStep(t *testing.T) {
	m := DefaultMigrator()
	d := Dist{0.2, 0.8}
	cycles := m.Step(d, 0, sim.Second, 1000)
	if cycles <= 0 {
		t.Fatal("migration reported zero cost")
	}
	if d[0] <= 0.2 {
		t.Fatalf("no pages moved: %v", d)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Below threshold: no movement.
	d2 := Dist{0.9, 0.1}
	if c := m.Step(d2, 0, sim.Second, 1000); c != 0 || d2[0] != 0.9 {
		t.Fatalf("migrated below threshold: cycles=%v dist=%v", c, d2)
	}
	// Nil migrator is a no-op.
	var nilM *Migrator
	d3 := Dist{0.5, 0.5}
	if c := nilM.Step(d3, 0, sim.Second, 1000); c != 0 {
		t.Fatal("nil migrator did work")
	}
	// Zero elapsed is a no-op.
	d4 := Dist{0.2, 0.8}
	if c := m.Step(d4, 0, 0, 1000); c != 0 || d4[0] != 0.2 {
		t.Fatal("zero-elapsed step did work")
	}
}

func TestMigratorConvergesHome(t *testing.T) {
	m := DefaultMigrator()
	d := Dist{0.1, 0.9}
	for i := 0; i < 200; i++ {
		m.Step(d, 0, sim.Second, 100)
	}
	// Converges until remote fraction drops below the threshold.
	if d.RemoteFraction(0) > m.MinRemoteFraction+1e-9 {
		t.Fatalf("did not converge: %v", d)
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyFill.String() != "fill" || PolicyStripe.String() != "stripe" || PolicyLocal.String() != "local" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy stringer empty")
	}
}
