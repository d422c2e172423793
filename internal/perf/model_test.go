package perf

import (
	"math"
	"testing"
	"testing/quick"

	"vprobe/internal/mem"
	"vprobe/internal/numa"
	"vprobe/internal/sim"
	"vprobe/internal/workload"
)

func testSystem() *System {
	return NewSystem(numa.XeonE5620())
}

func baseRequest(p *workload.Profile) Request {
	return Request{
		Profile:  p,
		Phase:    p.PhaseAt(0),
		Quantum:  30 * sim.Millisecond,
		RunNode:  0,
		PageDist: mem.Concentrated(2, 0),
	}
}

func TestExecuteBasicAccounting(t *testing.T) {
	s := testSystem()
	r := baseRequest(workload.Soplex())
	o := s.Execute(r)
	if o.Instructions <= 0 {
		t.Fatal("no instructions retired")
	}
	// RPTI relation: refs = instr * rpti/1000 for the active phase.
	wantRefs := o.Instructions * 16.0 / 1000
	if math.Abs(o.LLCRef-wantRefs) > 1e-6*wantRefs {
		t.Fatalf("LLCRef = %v, want %v", o.LLCRef, wantRefs)
	}
	if o.LLCMiss > o.LLCRef {
		t.Fatal("misses exceed references")
	}
	var nodeSum float64
	for _, v := range o.Node {
		nodeSum += v
	}
	if math.Abs(nodeSum-o.LLCMiss) > 1e-6*o.LLCMiss {
		t.Fatalf("node accesses %v != misses %v", nodeSum, o.LLCMiss)
	}
	if o.Remote != 0 {
		t.Fatalf("all-local pages produced %v remote accesses", o.Remote)
	}
	if o.Used != r.Quantum {
		t.Fatalf("uncapped run used %v, want full quantum %v", o.Used, r.Quantum)
	}
}

func TestRemotePagesAreRemoteAccesses(t *testing.T) {
	s := testSystem()
	r := baseRequest(workload.Libquantum())
	r.PageDist = mem.Dist{0.3, 0.7}
	o := s.Execute(r)
	want := o.LLCMiss * 0.7
	if math.Abs(o.Remote-want) > 1e-6*want {
		t.Fatalf("remote = %v, want %v", o.Remote, want)
	}
}

func TestRemoteLatencySlowsExecution(t *testing.T) {
	s := testSystem()
	local := baseRequest(workload.Libquantum())
	remote := baseRequest(workload.Libquantum())
	remote.PageDist = mem.Concentrated(2, 1)
	lo := s.Execute(local)
	ro := s.Execute(remote)
	if ro.Instructions >= lo.Instructions {
		t.Fatalf("remote run retired %v >= local %v", ro.Instructions, lo.Instructions)
	}
	// A compute-bound app barely cares.
	localC := baseRequest(workload.Povray())
	remoteC := baseRequest(workload.Povray())
	remoteC.PageDist = mem.Concentrated(2, 1)
	lc := s.Execute(localC)
	rc := s.Execute(remoteC)
	slowdownMem := lo.Instructions / ro.Instructions
	slowdownCPU := lc.Instructions / rc.Instructions
	if slowdownCPU > 1.02 {
		t.Fatalf("povray remote slowdown %v, want ~1", slowdownCPU)
	}
	if slowdownMem < 1.10 {
		t.Fatalf("libquantum remote slowdown %v, want >= 1.10", slowdownMem)
	}
}

func TestLLCContentionRaisesMissRate(t *testing.T) {
	s := testSystem()
	alone := baseRequest(workload.LU())
	crowded := baseRequest(workload.LU())
	crowded.CoRunnerRPTI = 60 // three thrashing co-runners
	oa := s.Execute(alone)
	oc := s.Execute(crowded)
	if oc.MissRate <= oa.MissRate {
		t.Fatalf("contended miss rate %v <= solo %v", oc.MissRate, oa.MissRate)
	}
	if oc.Instructions >= oa.Instructions {
		t.Fatal("LLC contention did not slow execution")
	}
	// Thrashers barely react to co-runners (already missing).
	ta := baseRequest(workload.Libquantum())
	tc := baseRequest(workload.Libquantum())
	tc.CoRunnerRPTI = 60
	soloT := s.Execute(ta)
	contT := s.Execute(tc)
	reactFI := oc.MissRate - oa.MissRate
	reactT := contT.MissRate - soloT.MissRate
	if reactT >= reactFI {
		t.Fatalf("thrasher reacted more (%v) than fitting app (%v)", reactT, reactFI)
	}
}

func TestEffectiveShare(t *testing.T) {
	if got := EffectiveShareKB(12288, 20, 20); got != 6144 {
		t.Fatalf("equal split share = %v", got)
	}
	if got := EffectiveShareKB(12288, 20, 0); got != 12288 {
		t.Fatalf("solo share = %v", got)
	}
	if got := EffectiveShareKB(12288, 0, 20); got != 0 {
		t.Fatalf("zero-intensity share = %v", got)
	}
	if got := EffectiveShareKB(12288, 20, -5); got != 12288 {
		t.Fatalf("negative co-runner share = %v", got)
	}
}

func TestColdLinesInflateMisses(t *testing.T) {
	s := testSystem()
	warm := baseRequest(workload.LU())
	cold := baseRequest(workload.LU())
	cold.ColdLines = s.ColdLinesFor(&workload.LU().Phases[0])
	ow := s.Execute(warm)
	oc := s.Execute(cold)
	if oc.MissRate <= ow.MissRate {
		t.Fatalf("cold miss rate %v <= warm %v", oc.MissRate, ow.MissRate)
	}
	if oc.Instructions >= ow.Instructions {
		t.Fatal("cold cache did not slow execution")
	}
	if oc.ColdLines >= cold.ColdLines {
		t.Fatal("refill debt did not shrink")
	}
	// Debt eventually drains to zero.
	r := cold
	r.ColdLines = 1000
	o := s.Execute(r)
	if o.ColdLines != 0 {
		t.Fatalf("tiny debt not fully drained: %v left", o.ColdLines)
	}
}

func TestMaxInstructionsCapsQuantum(t *testing.T) {
	s := testSystem()
	r := baseRequest(workload.Povray())
	full := s.Execute(r)
	r.MaxInstructions = full.Instructions / 2
	capped := s.Execute(r)
	if math.Abs(capped.Instructions-r.MaxInstructions) > 1 {
		t.Fatalf("capped instructions = %v, want %v", capped.Instructions, r.MaxInstructions)
	}
	if capped.Used >= full.Used {
		t.Fatalf("capped run used %v, full %v", capped.Used, full.Used)
	}
}

func TestOverheadCyclesReduceWork(t *testing.T) {
	s := testSystem()
	r := baseRequest(workload.Soplex())
	clean := s.Execute(r)
	r.OverheadCycles = 0.5 * float64(r.Quantum.Micros()) * s.Topology().CyclesPerMicrosecond()
	loaded := s.Execute(r)
	ratio := loaded.Instructions / clean.Instructions
	if math.Abs(ratio-0.5) > 0.01 {
		t.Fatalf("half-quantum overhead retired ratio %v, want ~0.5", ratio)
	}
	// Overhead exceeding the quantum retires nothing.
	r.OverheadCycles = 10 * float64(r.Quantum.Micros()) * s.Topology().CyclesPerMicrosecond()
	starved := s.Execute(r)
	if starved.Instructions != 0 {
		t.Fatalf("fully-starved quantum retired %v", starved.Instructions)
	}
}

func TestZeroQuantum(t *testing.T) {
	s := testSystem()
	r := baseRequest(workload.Soplex())
	r.Quantum = 0
	o := s.Execute(r)
	if o.Instructions != 0 || o.LLCMiss != 0 {
		t.Fatalf("zero quantum did work: %+v", o)
	}
	if len(o.Node) != 2 {
		t.Fatal("zero quantum outcome missing node vector")
	}
}

func TestContentionFeedbackLoop(t *testing.T) {
	s := testSystem()
	r := baseRequest(workload.Libquantum())
	before := s.Execute(r)

	// Saturate node 0's IMC for an epoch: 4 thrashers for a full second.
	lq := workload.Libquantum()
	for i := 0; i < 40; i++ {
		for j := 0; j < 4; j++ {
			o := s.Execute(Request{
				Profile: lq, Phase: &lq.Phases[0], Quantum: 25 * sim.Millisecond,
				RunNode: 0, PageDist: mem.Concentrated(2, 0), CoRunnerRPTI: 67,
			})
			s.Record(o, 0)
		}
	}
	s.EndEpoch(sim.Time(sim.Second))
	if s.IMCMultiplier(0) <= 1.01 {
		t.Fatalf("IMC multiplier did not rise: %v", s.IMCMultiplier(0))
	}
	if s.IMCMultiplier(1) > 1.01 {
		t.Fatalf("idle node's IMC multiplier rose: %v", s.IMCMultiplier(1))
	}
	after := s.Execute(r)
	if after.Instructions >= before.Instructions {
		t.Fatal("IMC contention did not slow execution")
	}

	// Quiet epochs decay back toward 1.
	for i := 0; i < 20; i++ {
		s.EndEpoch(sim.Time(sim.Second) + sim.Time(i+1)*sim.Time(sim.Second))
	}
	if s.IMCMultiplier(0) > 1.01 {
		t.Fatalf("multiplier did not decay: %v", s.IMCMultiplier(0))
	}
}

func TestLinkContention(t *testing.T) {
	s := testSystem()
	// Heavy cross-node traffic.
	lq := workload.Libquantum()
	for i := 0; i < 40; i++ {
		o := s.Execute(Request{
			Profile: lq, Phase: &lq.Phases[0], Quantum: 25 * sim.Millisecond,
			RunNode: 0, PageDist: mem.Concentrated(2, 1),
		})
		s.Record(o, 0)
		s.Record(o, 0)
		s.Record(o, 0)
		s.Record(o, 0)
	}
	s.EndEpoch(sim.Time(sim.Second))
	if s.LinkMultiplier(0, 1) <= 1.0 {
		t.Fatalf("link multiplier did not rise: %v", s.LinkMultiplier(0, 1))
	}
	if s.LinkMultiplier(0, 1) != s.LinkMultiplier(1, 0) {
		t.Fatal("link multiplier not symmetric")
	}
	if s.LinkMultiplier(0, 0) != 1 {
		t.Fatal("self-link multiplier != 1")
	}
}

func TestMultipliersBounded(t *testing.T) {
	s := testSystem()
	// Absurd traffic must still produce finite multipliers.
	o := Outcome{Node: []float64{1e15, 1e15}, LLCMiss: 2e15}
	s.Record(o, 0)
	s.EndEpoch(sim.Time(sim.Millisecond))
	maxMult := 1 / (1 - Defaults().UtilCap) * 1.01
	if s.IMCMultiplier(0) > maxMult || math.IsInf(s.IMCMultiplier(0), 0) {
		t.Fatalf("IMC multiplier unbounded: %v", s.IMCMultiplier(0))
	}
}

func TestEndEpochZeroElapsedSafe(t *testing.T) {
	s := testSystem()
	s.EndEpoch(0)
	s.EndEpoch(0) // must not divide by zero
	if s.IMCMultiplier(0) != 1 {
		t.Fatalf("multiplier changed on zero-length epoch: %v", s.IMCMultiplier(0))
	}
}

func TestPhaseSelectionAffectsOutcome(t *testing.T) {
	s := testSystem()
	p := workload.Soplex() // phase 2 has higher RPTI
	early := baseRequest(p)
	late := baseRequest(p)
	late.Phase = p.PhaseAt(0.9 * p.TotalInstructions)
	oe := s.Execute(early)
	ol := s.Execute(late)
	if ol.LLCRef/ol.Instructions <= oe.LLCRef/oe.Instructions {
		t.Fatal("late phase should have higher reference intensity")
	}
}

func TestExecuteDeterministic(t *testing.T) {
	a := testSystem()
	b := testSystem()
	r := baseRequest(workload.MCF())
	oa := a.Execute(r)
	ob := b.Execute(r)
	if oa.Instructions != ob.Instructions || oa.LLCMiss != ob.LLCMiss {
		t.Fatal("identical requests produced different outcomes")
	}
}

func TestOutcomeInvariants(t *testing.T) {
	s := testSystem()
	apps := workload.Catalog()
	check := func(app8, node8, co8 uint8, dist0 float64) bool {
		names := workload.Names(apps)
		p := apps[names[int(app8)%len(names)]]
		if math.IsNaN(dist0) || math.IsInf(dist0, 0) {
			return true
		}
		f := math.Abs(dist0)
		f -= math.Floor(f)
		r := Request{
			Profile:      p,
			Phase:        p.PhaseAt(0),
			Quantum:      10 * sim.Millisecond,
			RunNode:      numa.NodeID(int(node8) % 2),
			PageDist:     mem.Dist{f, 1 - f},
			CoRunnerRPTI: float64(co8 % 80),
		}
		o := s.Execute(r)
		if o.Instructions < 0 || o.LLCMiss < 0 || o.LLCMiss > o.LLCRef+1e-9 {
			return false
		}
		if o.MissRate < 0 || o.MissRate > 1 {
			return false
		}
		if o.Remote < -1e-9 || o.Remote > o.LLCMiss+1e-9 {
			return false
		}
		return o.Used <= r.Quantum && o.Used >= 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
