// Package perf is the analytic performance model that converts "VCPU v ran
// workload w on node n for quantum q alongside co-runners C" into retired
// instructions, LLC traffic, and per-node memory accesses.
//
// It captures the four performance-degrading factors the paper names
// (§II-A): remote memory access latency, memory-controller contention,
// interconnect-link contention, and LLC contention — plus the cold-cache
// refill cost of cross-socket migration, which is what makes careless load
// balancing expensive.
//
// Contention is resolved with epoch relaxation: per-node IMC and per-link
// QPI utilizations measured over the previous epoch determine this epoch's
// latency multipliers. That keeps each quantum O(nodes) to evaluate while
// still producing the feedback the paper's mechanisms exploit.
package perf

import (
	"fmt"
	"math"

	"vprobe/internal/mem"
	"vprobe/internal/numa"
	"vprobe/internal/sim"
	"vprobe/internal/workload"
)

// Params are the model constants. Defaults() documents each choice.
type Params struct {
	// Alpha is the paper's Eq. 2 scaling constant (set to 1000 in §IV-A).
	Alpha float64
	// MLP is the memory-level-parallelism overlap factor: the fraction
	// of each miss's latency that is exposed to the pipeline.
	MLP float64
	// HitVisible is the fraction of the LLC hit latency exposed.
	HitVisible float64
	// UtilCap bounds queueing utilization in the 1/(1-u) multiplier so
	// latencies stay finite under saturation.
	UtilCap float64
	// BytesPerMiss is the DRAM traffic per demand miss: one 64 B line
	// plus associated prefetch and write-back traffic.
	BytesPerMiss float64
	// QPIGBPerGT converts link GT/s into usable GB/s of payload per
	// direction, net of protocol, header, and coherence-snoop overhead.
	QPIGBPerGT float64
	// IMCEfficiency derates the nominal IMC bandwidth to what random
	// demand traffic actually sustains.
	IMCEfficiency float64
	// ColdRefill is the fraction of the working set that must be
	// refetched after a cross-socket migration.
	ColdRefill float64
	// EpochSmoothing is the EWMA weight on the newest epoch's measured
	// utilization (1 = no smoothing).
	EpochSmoothing float64
}

// Defaults returns the calibrated model constants.
func Defaults() Params {
	return Params{
		Alpha:          1000, // paper §IV-A
		MLP:            0.75, // LP solvers/pointer chasing expose most of each miss
		HitVisible:     0.30, // L3 hits mostly pipelined
		UtilCap:        0.88, // keeps 1/(1-u) <= 8.3x
		BytesPerMiss:   256,
		QPIGBPerGT:     0.3, // headers, snoops and coherence broadcasts eat most raw capacity
		IMCEfficiency:  0.6, // random access sustains ~60% of peak
		ColdRefill:     0.8, // migrations refill most of the hot set
		EpochSmoothing: 0.5,
	}
}

// Request describes one execution quantum to evaluate.
type Request struct {
	// Profile is the workload running on the VCPU.
	Profile *workload.Profile
	// Phase is the profile's phase in effect for this quantum
	// (Profile.PhaseAt of the work already retired); required.
	Phase *workload.Phase
	// Quantum is the wall-clock slice granted.
	Quantum sim.Duration
	// RunNode is the node of the PCPU executing the quantum.
	RunNode numa.NodeID
	// PageDist is the VCPU's current page distribution.
	PageDist mem.Dist
	// CoRunnerRPTI is the summed RPTI of the other VCPUs executing on
	// the same socket during this quantum (LLC share competition).
	CoRunnerRPTI float64
	// ColdLines is the number of cache lines still to refill after a
	// recent cross-socket migration; these turn would-be hits into
	// misses.
	ColdLines float64
	// MaxInstructions caps retired work (end of a batch app); 0 = no cap.
	MaxInstructions float64
	// OverheadCycles is scheduler bookkeeping (PMU reads, partitioning,
	// BRM lock waits) charged against the quantum before any
	// instructions retire.
	OverheadCycles float64
}

// Outcome is the result of evaluating a Request.
type Outcome struct {
	Instructions float64
	Cycles       float64 // total cycles consumed, including overhead
	LLCRef       float64
	LLCMiss      float64
	Node         []float64 // memory accesses served per node
	Remote       float64   // accesses served off RunNode
	ColdLines    float64   // refill debt remaining after the quantum
	MissRate     float64   // observed (cold-inflated) miss rate
	CPI          float64   // effective cycles per instruction
	Used         sim.Duration
}

// System holds the contention state shared by all VCPUs.
type System struct {
	top    *numa.Topology
	params Params

	imcMult  []float64   // per node
	linkMult [][]float64 // per node pair (symmetric)

	nodeBytes []float64
	pairBytes [][]float64
	epochAt   sim.Time

	// linkCap[a][b] is the usable bytes/s between a node pair, summed over
	// the links connecting it. The topology is immutable, so this is
	// computed once at construction instead of per epoch.
	linkCap [][]float64

	// memLat[r][n] is the contended latency in cycles of a memory access
	// from node r to node n: the topology's latency times n's IMC
	// multiplier, times the r–n link multiplier when n is remote. The
	// multipliers move only in EndEpoch, which refills it.
	memLat [][]float64

	// The topology's derived constants ExecuteInto reads, cached at
	// construction: cycles per microsecond and the LLC hit latency in
	// cycles.
	cpm    float64
	llcHit float64
}

// NewSystem builds the model for a topology with default parameters.
func NewSystem(top *numa.Topology) *System {
	return NewSystemParams(top, Defaults())
}

// NewSystemParams builds the model with explicit parameters.
func NewSystemParams(top *numa.Topology, p Params) *System {
	n := top.NumNodes()
	s := &System{
		top:       top,
		params:    p,
		imcMult:   make([]float64, n),
		linkMult:  make([][]float64, n),
		nodeBytes: make([]float64, n),
		pairBytes: make([][]float64, n),
		cpm:       top.CyclesPerMicrosecond(),
		llcHit:    top.LLCHitLatencyCycles(),
	}
	for i := 0; i < n; i++ {
		s.imcMult[i] = 1
		s.linkMult[i] = make([]float64, n)
		s.pairBytes[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			s.linkMult[i][j] = 1
		}
	}
	s.linkCap = make([][]float64, n)
	for i := range s.linkCap {
		s.linkCap[i] = make([]float64, n)
	}
	for _, l := range top.Links() {
		bw := l.BandwidthGTs * p.QPIGBPerGT * 1e9
		s.linkCap[l.A][l.B] += bw
		s.linkCap[l.B][l.A] += bw
	}
	s.memLat = make([][]float64, n)
	for i := range s.memLat {
		s.memLat[i] = make([]float64, n)
	}
	s.fillMemLat()
	return s
}

// fillMemLat recomputes the contended-latency table from the current
// multipliers.
func (s *System) fillMemLat() {
	for r, row := range s.memLat {
		for n := range row {
			lat := s.top.MemLatencyCycles(numa.NodeID(r), numa.NodeID(n)) * s.imcMult[n]
			if n != r {
				lat *= s.linkMult[r][n]
			}
			row[n] = lat
		}
	}
}

// Topology returns the machine model.
func (s *System) Topology() *numa.Topology { return s.top }

// ColdLinesFor returns the refill debt to charge when a VCPU running the
// given phase migrates across sockets.
func (s *System) ColdLinesFor(ph *workload.Phase) float64 {
	const lineBytes = 64
	return float64(ph.WorkingSetKB) * 1024 / lineBytes * s.params.ColdRefill
}

// EffectiveShareKB computes the LLC share of a VCPU with reference
// intensity own competing against co-runners with summed intensity co on a
// socket with llcKB of cache. Pressure-proportional sharing is the
// standard analytic cache-partitioning approximation.
func EffectiveShareKB(llcKB int64, own, co float64) float64 {
	if own <= 0 {
		return 0
	}
	if co < 0 {
		co = 0
	}
	return float64(llcKB) * own / (own + co)
}

// Execute evaluates one quantum. It is read-only with respect to contention
// state; callers must Record the outcome for the feedback loop.
//
// Execute allocates a fresh per-node vector per call; the quantum hot path
// uses ExecuteInto with a reusable Outcome instead.
func (s *System) Execute(r Request) Outcome {
	var out Outcome
	s.ExecuteInto(&out, &r)
	return out
}

// ExecuteInto is Execute writing into a caller-owned Outcome: out's Node
// slice is reused when it has the capacity, so a VCPU that keeps one
// Outcome across quanta makes the evaluation allocation-free. All other
// fields of out are overwritten. r is only read.
//
//vprobe:hotpath
func (s *System) ExecuteInto(out *Outcome, r *Request) {
	node := out.Node
	if cap(node) < s.top.NumNodes() {
		node = make([]float64, s.top.NumNodes()) //vet:alloc only when the caller-owned Outcome is too small; VCPUs keep one across quanta
	}
	node = node[:s.top.NumNodes()]
	for i := range node {
		node[i] = 0
	}
	*out = Outcome{Node: node}
	if r.Quantum <= 0 {
		return
	}
	ph := r.Phase
	rpi := ph.RPTI / 1000 // LLC references per instruction

	cyclesAvail := float64(r.Quantum.Micros()) * s.cpm
	overhead := min(r.OverheadCycles, cyclesAvail)
	cyclesAvail -= overhead

	share := EffectiveShareKB(s.top.LLCSizeKB(r.RunNode), ph.RPTI, r.CoRunnerRPTI)
	baseMiss := ph.MissRate(share)

	// Average memory latency in cycles over the page distribution,
	// inflated by last epoch's contention multipliers.
	lats := s.memLat[r.RunNode]
	var memLat float64
	for n, lat := range lats {
		frac := r.PageDist.LocalFraction(numa.NodeID(n))
		if frac <= 0 {
			continue
		}
		memLat += frac * lat
	}
	if memLat == 0 { // empty page dist: treat as local
		memLat = lats[r.RunNode]
	}

	mlp := s.params.MLP
	if r.Profile.LatencyExposure > 0 {
		mlp = r.Profile.LatencyExposure
	}
	//vet:alloc non-escaping helper: called twice below and never stored, so it stays on the stack (the compiler's escape analysis agrees)
	cpiAt := func(miss float64) float64 {
		hit := rpi * (1 - miss) * s.llcHit * s.params.HitVisible
		mm := rpi * miss * memLat * mlp
		return r.Profile.BaseCPI + hit + mm
	}

	// First pass: estimate references to resolve the cold-refill debt.
	missEff := baseMiss
	coldLeft := r.ColdLines
	if r.ColdLines > 0 && rpi > 0 {
		instrEst := cyclesAvail / cpiAt(baseMiss)
		refsEst := instrEst * rpi
		wouldHit := refsEst * (1 - baseMiss)
		coldConv := min(r.ColdLines, wouldHit)
		if refsEst > 0 {
			missEff = (refsEst*baseMiss + coldConv) / refsEst
			if missEff > 1 {
				missEff = 1
			}
		}
		coldLeft = r.ColdLines - coldConv
		if coldLeft < 0 {
			coldLeft = 0
		}
	}

	cpi := cpiAt(missEff)
	instr := cyclesAvail / cpi
	cycles := cyclesAvail
	// An uncapped quantum uses all of itself: its cycles, overhead
	// included, are the quantum's own to within rounding, and the used
	// time is their microseconds rounded up and capped at the quantum.
	out.Used = r.Quantum
	if r.MaxInstructions > 0 && instr > r.MaxInstructions {
		instr = r.MaxInstructions
		cycles = instr * cpi
		out.Used = min(sim.Duration(math.Ceil((cycles+overhead)/s.cpm)), r.Quantum)
	}

	refs := instr * rpi
	misses := refs * missEff
	out.Instructions = instr
	out.Cycles = cycles + overhead
	out.LLCRef = refs
	out.LLCMiss = misses
	out.ColdLines = coldLeft
	out.MissRate = missEff
	out.CPI = cpi
	for n := 0; n < s.top.NumNodes(); n++ {
		served := misses * r.PageDist.LocalFraction(numa.NodeID(n))
		out.Node[n] = served
		if numa.NodeID(n) != r.RunNode {
			out.Remote += served
		}
	}
}

// Record feeds an outcome into the contention accumulators.
func (s *System) Record(o *Outcome, runNode numa.NodeID) {
	for n := range o.Node {
		bytes := o.Node[n] * s.params.BytesPerMiss
		s.nodeBytes[n] += bytes
		if numa.NodeID(n) != runNode {
			s.pairBytes[runNode][n] += bytes
			s.pairBytes[n][runNode] += bytes
		}
	}
}

// EndEpoch recomputes the contention multipliers from the traffic recorded
// since the previous epoch boundary and resets the accumulators. now is the
// current virtual time.
func (s *System) EndEpoch(now sim.Time) {
	elapsed := now.Sub(s.epochAt)
	s.epochAt = now
	if elapsed <= 0 {
		return
	}
	secs := elapsed.Seconds()
	w := s.params.EpochSmoothing

	eff := s.params.IMCEfficiency
	if eff <= 0 {
		eff = 1
	}
	for n := 0; n < s.top.NumNodes(); n++ {
		bw := s.top.Node(numa.NodeID(n)).IMCBandwidthGBs * 1e9 * eff
		u := sim.Clamp(s.nodeBytes[n]/secs/bw, 0, s.params.UtilCap)
		target := 1 / (1 - u)
		s.imcMult[n] = (1-w)*s.imcMult[n] + w*target
		s.nodeBytes[n] = 0
		for m := n + 1; m < s.top.NumNodes(); m++ {
			cap := s.linkCap[n][m]
			if cap <= 0 {
				cap = 1e9 // disconnected pairs: nominal
			}
			u := sim.Clamp(s.pairBytes[n][m]/secs/cap, 0, s.params.UtilCap)
			target := 1 / (1 - u)
			mult := (1-w)*s.linkMult[n][m] + w*target
			s.linkMult[n][m] = mult
			s.linkMult[m][n] = mult
			s.pairBytes[n][m] = 0
			s.pairBytes[m][n] = 0
		}
	}
	s.fillMemLat()
}

// String summarises the current contention state.
func (s *System) String() string {
	return fmt.Sprintf("perf: imc=%v", s.imcMult)
}
