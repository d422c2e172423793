package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCatalogValidates(t *testing.T) {
	for name, p := range Catalog() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, c := range []int{1, 16, 64, 112} {
		if err := Memcached(c).Validate(); err != nil {
			t.Errorf("memcached(%d): %v", c, err)
		}
	}
	for _, c := range []int{1, 2000, 10000} {
		if err := Redis(c).Validate(); err != nil {
			t.Errorf("redis(%d): %v", c, err)
		}
	}
}

func TestFig3RPTIMatchesPaper(t *testing.T) {
	// Paper Fig. 3(b): measured LLC references per thousand instructions.
	want := map[string]float64{
		"povray":     0.48,
		"ep":         2.01,
		"lu":         15.38,
		"mg":         16.33,
		"milc":       21.68,
		"libquantum": 22.41,
	}
	cat := Catalog()
	for name, rpti := range want {
		got := cat[name].AvgRPTI()
		if math.Abs(got-rpti) > 0.02 {
			t.Errorf("%s: AvgRPTI = %v, paper says %v", name, got, rpti)
		}
	}
}

func TestClassificationBoundsSeparateClasses(t *testing.T) {
	// The paper's bounds low=3, high=20 must separate the catalog's
	// ground-truth classes by mean RPTI.
	const low, high = 3, 20
	for name, p := range Catalog() {
		r := p.AvgRPTI()
		var want Class
		switch {
		case r < low:
			want = ClassFriendly
		case r < high:
			want = ClassFitting
		default:
			want = ClassThrashing
		}
		if p.TrueClass != want {
			t.Errorf("%s: RPTI %.2f implies %v but TrueClass is %v", name, r, want, p.TrueClass)
		}
	}
}

func TestMissRateCurveMonotone(t *testing.T) {
	check := func(wsKB16 uint16, solo8, max8 uint8, a, b float64) bool {
		ws := int64(wsKB16%30000) + 100
		solo := float64(solo8%50) / 100
		maxR := solo + float64(max8%40)/100 + 0.01
		if maxR > 1 {
			maxR = 1
		}
		ph := Phase{Fraction: 1, RPTI: 10, WorkingSetKB: ws, SoloMissRate: solo, MaxMissRate: maxR}
		sa := math.Abs(a)
		sb := math.Abs(b)
		if math.IsNaN(sa) || math.IsNaN(sb) || math.IsInf(sa, 0) || math.IsInf(sb, 0) {
			return true
		}
		lo, hi := math.Min(sa, sb), math.Max(sa, sb)
		// Monotone non-increasing in share, bounded by [solo, max].
		mLo, mHi := ph.MissRate(hi), ph.MissRate(lo)
		return mLo <= mHi+1e-12 && mLo >= solo-1e-12 && mHi <= maxR+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMissRateEndpoints(t *testing.T) {
	ph := Phase{Fraction: 1, RPTI: 10, WorkingSetKB: 10000, SoloMissRate: 0.1, MaxMissRate: 0.7}
	if got := ph.MissRate(10000); got != 0.1 {
		t.Fatalf("full share miss = %v, want solo", got)
	}
	if got := ph.MissRate(20000); got != 0.1 {
		t.Fatalf("surplus share miss = %v, want solo", got)
	}
	if got := ph.MissRate(0); got != 0.7 {
		t.Fatalf("zero share miss = %v, want max", got)
	}
	if got := ph.MissRate(-5); got != 0.7 {
		t.Fatalf("negative share miss = %v, want max", got)
	}
	if got := ph.MissRate(5000); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("half share miss = %v, want 0.4", got)
	}
}

func TestPhaseAtProgression(t *testing.T) {
	p := Soplex() // phases 0.6 / 0.4
	if ph := p.PhaseAt(0); ph.RPTI != 16.00 {
		t.Fatalf("start phase RPTI = %v", ph.RPTI)
	}
	if ph := p.PhaseAt(0.59 * p.TotalInstructions); ph.RPTI != 16.00 {
		t.Fatalf("phase at 59%% RPTI = %v", ph.RPTI)
	}
	if ph := p.PhaseAt(0.61 * p.TotalInstructions); ph.RPTI != 23.00 {
		t.Fatalf("phase at 61%% RPTI = %v", ph.RPTI)
	}
	if ph := p.PhaseAt(2 * p.TotalInstructions); ph.RPTI != 23.00 {
		t.Fatalf("overshoot phase RPTI = %v", ph.RPTI)
	}
	if ph := p.PhaseAt(-1); ph.RPTI != 16.00 {
		t.Fatalf("negative progress phase RPTI = %v", ph.RPTI)
	}
}

func TestServersReportPhaseZero(t *testing.T) {
	p := Memcached(64)
	if ph := p.PhaseAt(1e15); ph != &p.Phases[0] {
		t.Fatal("server PhaseAt should always be phase 0")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := LU()
	q := p.Clone()
	q.Phases[0].RPTI = 99
	if p.Phases[0].RPTI == 99 {
		t.Fatal("Clone shares phase storage")
	}
}

func TestScale(t *testing.T) {
	p := LU()
	q := p.Scale(0.5)
	if q.TotalInstructions != p.TotalInstructions/2 {
		t.Fatalf("Scale: got %v", q.TotalInstructions)
	}
	if p.TotalInstructions != 2.2e10 {
		t.Fatal("Scale mutated the original")
	}
}

func TestMemcachedWorkingSetGrowsWithConcurrency(t *testing.T) {
	// The Fig. 6 crossover mechanism: working set must cross the
	// 12 MB LLC capacity somewhere inside the 16..112 sweep.
	lo := Memcached(16).Phases[0].WorkingSetKB
	hi := Memcached(112).Phases[0].WorkingSetKB
	const llcKB = 12 * 1024
	if lo >= llcKB {
		t.Fatalf("memcached(16) ws=%d KB already exceeds LLC", lo)
	}
	if hi <= llcKB {
		t.Fatalf("memcached(112) ws=%d KB does not exceed LLC", hi)
	}
	prev := int64(0)
	for c := 16; c <= 112; c += 16 {
		ws := Memcached(c).Phases[0].WorkingSetKB
		if ws <= prev {
			t.Fatalf("working set not strictly increasing at c=%d", c)
		}
		prev = ws
	}
}

func TestRedisAlwaysCacheHeavy(t *testing.T) {
	// Fig. 7: VCPU-P beats LB throughout, because redis pressures the
	// LLC at every connection count tested.
	for _, c := range []int{2000, 4000, 6000, 8000, 10000} {
		p := Redis(c)
		if p.AvgRPTI() < 18 {
			t.Fatalf("redis(%d) RPTI %v too low", c, p.AvgRPTI())
		}
		if p.Phases[0].WorkingSetKB < 10000 {
			t.Fatalf("redis(%d) working set %d KB too small", c, p.Phases[0].WorkingSetKB)
		}
	}
}

func TestByName(t *testing.T) {
	for name := range builders {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != name {
			t.Errorf("ByName(%q) built profile %q", name, p.Name)
		}
		if q, _ := ByName(name); q == p || &q.Phases[0] == &p.Phases[0] {
			t.Errorf("ByName(%q) returned shared state, want a fresh profile per call", name)
		}
	}
	_, err := ByName("doom")
	const want = `workload: unknown profile "doom" (have [bt cg ep guest-idle hungry libquantum lu mcf mg milc povray redis-benchmark soplex sp])`
	if err == nil || err.Error() != want {
		t.Fatalf("ByName(doom) error = %v, want %s", err, want)
	}
}

func TestSuiteSelections(t *testing.T) {
	if got := len(Fig3Apps()); got != 6 {
		t.Fatalf("Fig3Apps = %d, want 6", got)
	}
}

func TestValidateCatchesBadProfiles(t *testing.T) {
	bad := []*Profile{
		{},
		{Name: "x", BaseCPI: 1},
		{Name: "x", BaseCPI: 1, Phases: []Phase{{Fraction: 0.5, RPTI: 1, WorkingSetKB: 1, MaxMissRate: 0.1}},
			FootprintMB: 1, TotalInstructions: 1, TouchesPerPage: 1},
		{Name: "x", BaseCPI: 1, Phases: []Phase{{Fraction: 1, RPTI: 1, WorkingSetKB: 1, SoloMissRate: 0.5, MaxMissRate: 0.1}},
			FootprintMB: 1, TotalInstructions: 1, TouchesPerPage: 1},
		{Name: "x", BaseCPI: 1, Phases: []Phase{{Fraction: 1, RPTI: 1, WorkingSetKB: 1, MaxMissRate: 0.1}},
			FootprintMB: 1, TouchesPerPage: 1}, // batch without instructions
		{Name: "x", BaseCPI: 1, Phases: []Phase{{Fraction: 1, RPTI: 1, WorkingSetKB: 1, MaxMissRate: 0.1}},
			FootprintMB: 1, TotalInstructions: 1, TouchesPerPage: 0.5},
		{Name: "x", BaseCPI: 1, Server: true, Phases: []Phase{{Fraction: 1, RPTI: 1, WorkingSetKB: 1, MaxMissRate: 0.1}},
			FootprintMB: 1, TouchesPerPage: 1}, // server without InstrPerRequest
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}

func TestClassString(t *testing.T) {
	if ClassFriendly.String() != "LLC-FR" || ClassFitting.String() != "LLC-FI" || ClassThrashing.String() != "LLC-T" {
		t.Fatal("class names do not match the paper")
	}
	if Class(9).String() == "" {
		t.Fatal("unknown class stringer empty")
	}
}
