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
			s.Record(&o, 0)
		}
	}
	s.EndEpoch(sim.Time(sim.Second))
	if s.imcMult[0] <= 1.01 {
		t.Fatalf("IMC multiplier did not rise: %v", s.imcMult[0])
	}
	if s.imcMult[1] > 1.01 {
		t.Fatalf("idle node's IMC multiplier rose: %v", s.imcMult[1])
	}
	after := s.Execute(r)
	if after.Instructions >= before.Instructions {
		t.Fatal("IMC contention did not slow execution")
	}

	// Quiet epochs decay back toward 1.
	for i := 0; i < 20; i++ {
		s.EndEpoch(sim.Time(sim.Second) + sim.Time(i+1)*sim.Time(sim.Second))
	}
	if s.imcMult[0] > 1.01 {
		t.Fatalf("multiplier did not decay: %v", s.imcMult[0])
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
		s.Record(&o, 0)
		s.Record(&o, 0)
		s.Record(&o, 0)
		s.Record(&o, 0)
	}
	s.EndEpoch(sim.Time(sim.Second))
	if s.linkMult[0][1] <= 1.0 {
		t.Fatalf("link multiplier did not rise: %v", s.linkMult[0][1])
	}
	if s.linkMult[0][1] != s.linkMult[1][0] {
		t.Fatal("link multiplier not symmetric")
	}
}

func TestMultipliersBounded(t *testing.T) {
	s := testSystem()
	// Absurd traffic must still produce finite multipliers.
	o := Outcome{Node: []float64{1e15, 1e15}, LLCMiss: 2e15}
	s.Record(&o, 0)
	s.EndEpoch(sim.Time(sim.Millisecond))
	maxMult := 1 / (1 - Defaults().UtilCap) * 1.01
	if s.imcMult[0] > maxMult || math.IsInf(s.imcMult[0], 0) {
		t.Fatalf("IMC multiplier unbounded: %v", s.imcMult[0])
	}
}

func TestEndEpochZeroElapsedSafe(t *testing.T) {
	s := testSystem()
	s.EndEpoch(0)
	s.EndEpoch(0) // must not divide by zero
	if s.imcMult[0] != 1 {
		t.Fatalf("multiplier changed on zero-length epoch: %v", s.imcMult[0])
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

// TestUncappedQuantumUsesItAll is the property ExecuteInto's uncapped
// path rests on: when MaxInstructions does not cap the work, the used
// time is the whole quantum, and equals what rounding the quantum's
// cycles up to microseconds and capping at the quantum gives. Random
// requests cover overhead below, at and above the quantum's cycles, cold
// lines, burst quanta of a few hundred microseconds, remote pages, and a
// MaxInstructions that is set but does not bind, on a system whose
// contention multipliers have moved off 1.
func TestUncappedQuantumUsesItAll(t *testing.T) {
	s := testSystem()
	apps := append(workload.Fig3Apps(), workload.Soplex(), workload.Hungry(),
		workload.GuestIdle(), workload.Memcached(32), workload.Redis(50))
	r := sim.NewRNG(40)
	for epoch := 1; epoch <= 20; epoch++ {
		o := s.Execute(baseRequest(workload.Libquantum()))
		for range 200 {
			s.Record(&o, numa.NodeID(r.Intn(2)))
		}
		s.EndEpoch(sim.Time(epoch) * sim.Time(30*sim.Millisecond))
		for range 500 {
			app := apps[r.Intn(len(apps))]
			req := baseRequest(app)
			req.Phase = app.PhaseAt(r.Float64() * app.TotalInstructions)
			req.Quantum = sim.Duration(1 + r.Intn(int(30*sim.Millisecond)))
			if r.Intn(2) == 0 {
				req.Quantum = sim.Duration(1 + r.Intn(1000)) // burst quanta
			}
			req.RunNode = numa.NodeID(r.Intn(2))
			local := r.Float64()
			req.PageDist = mem.Dist{local, 1 - local}
			req.CoRunnerRPTI = r.Float64() * 80
			if r.Intn(2) == 0 {
				req.ColdLines = r.Float64() * 2e5
			}
			quantumCycles := float64(req.Quantum.Micros()) * s.Topology().CyclesPerMicrosecond()
			switch r.Intn(4) {
			case 0:
				req.OverheadCycles = r.Float64() * quantumCycles
			case 1:
				req.OverheadCycles = quantumCycles
			case 2:
				req.OverheadCycles = (1 + r.Float64()) * quantumCycles
			}
			out := s.Execute(req)
			if r.Intn(2) == 0 {
				// A cap at or above the work retired does not bind.
				req.MaxInstructions = out.Instructions * (1 + r.Float64())
				out = s.Execute(req)
			}
			rounded := min(sim.Duration(math.Ceil(out.Cycles/s.Topology().CyclesPerMicrosecond())), req.Quantum)
			if out.Used != req.Quantum || rounded != req.Quantum {
				t.Fatalf("%s, quantum %v, overhead %.6g cycles, cold %.6g: used %v, rounded cycles %v; want the quantum",
					app.Name, req.Quantum, req.OverheadCycles, req.ColdLines, out.Used, rounded)
			}
		}
	}
}
