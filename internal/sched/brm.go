package sched

import (
	"vprobe/internal/core"
	"vprobe/internal/numa"
	"vprobe/internal/sim"
	"vprobe/internal/telemetry"
	"vprobe/internal/xen"
)

// BRM models the Bias Random vCPU Migration scheduler of Rao et al.
// (HPCA'13), the paper's external comparator. BRM estimates each VCPU's
// "uncore penalty" — a single scalar folding together remote-access and
// shared-resource cost — and steals with a probability bias toward moves
// that reduce the system-wide penalty.
//
// Its documented weakness (paper §V-B5) is a system-wide lock serialising
// every penalty update; past ~8 active VCPUs the convoy cost overwhelms
// the placement gains. Cacheline bouncing and IPI-driven wakeup storms
// grow superlinearly with contenders, so the model charges
// LockMicros * max(0, active-8)^2 per update — a phenomenological fit to
// the paper's observation that BRM ≈ Credit at 24 VCPUs despite lower
// memory traffic (see DESIGN.md).
type BRM struct {
	// Analyzer supplies pressures/affinities for the penalty estimate.
	Analyzer *core.Analyzer
	// SamplePeriod refreshes penalties (1 s, matching vProbe's cadence).
	SamplePeriod sim.Duration
	// LockMicros scales the global-lock convoy cost.
	LockMicros float64
	// LockFreeVCPUs is the contention-free VCPU budget (the paper puts
	// the knee at 8).
	LockFreeVCPUs int
	// Epsilon is the fully-random exploration probability of the biased
	// migration.
	Epsilon float64

	// cands/weights are PickNext's reusable candidate buffers (one steal
	// attempt per idle PCPU per quantum; a scheduler instance serves one
	// hypervisor, so one set suffices).
	cands   []brmCand
	weights []float64

	// Pre-bound telemetry handles for the global-lock model (nil until
	// AttachTelemetry): update count, accumulated convoy wait, and the
	// contender census the quadratic cost is computed from.
	lockUpdates    *telemetry.Counter
	lockWaitUS     *telemetry.Counter
	lockContenders *telemetry.Gauge
}

// brmCand pairs a stealable VCPU with the queue holding it.
type brmCand struct {
	v *xen.VCPU
	q *xen.PCPU
}

// NewBRM returns the comparator with its calibrated constants.
func NewBRM() *BRM {
	return &BRM{
		Analyzer:      core.NewAnalyzer(),
		SamplePeriod:  sim.Second,
		LockMicros:    8,
		LockFreeVCPUs: 8,
		Epsilon:       0.1,
	}
}

// Name implements xen.Policy.
func (*BRM) Name() string { return "BRM" }

// UsesPMU implements xen.Policy.
func (*BRM) UsesPMU() bool { return true }

// NUMAAwareBalance implements xen.Policy: BRM biases steals but keeps the
// default machine-wide placement re-pick.
func (*BRM) NUMAAwareBalance() bool { return false }

// AttachTelemetry implements xen.PolicyTelemetry: BRM's documented
// weakness is only diagnosable as a time series, so the lock model
// exports its update count, accumulated convoy wait, and contender
// census.
func (s *BRM) AttachTelemetry(reg *telemetry.Registry, labels ...telemetry.Label) {
	s.lockUpdates = reg.Counter("sched_brm_lock_updates_total",
		"Penalty updates taken under BRM's system-wide lock.", labels...)
	s.lockWaitUS = reg.Counter("sched_brm_lock_wait_us_total",
		"Accumulated convoy wait charged by the lock-contention model.", labels...)
	s.lockContenders = reg.Gauge("sched_brm_lock_contenders",
		"Active VCPUs contending for the penalty lock at the last update.", labels...)
}

// lockCost returns the convoy cost in microseconds of one penalty update.
// Contention scales with the number of VCPUs whose penalties the update
// walks (the paper's observation: fine above 8 VCPUs, pathological at 24).
func (s *BRM) lockCost(h *xen.Hypervisor) float64 {
	vcpus := 0
	for _, v := range h.AllVCPUs() {
		if v.App != nil && !v.Done {
			vcpus++
		}
	}
	if s.lockContenders != nil {
		s.lockContenders.Set(float64(vcpus))
	}
	excess := vcpus - s.LockFreeVCPUs
	if excess <= 0 {
		return 0
	}
	cost := s.LockMicros * float64(excess) * float64(excess)
	if s.lockWaitUS != nil {
		s.lockWaitUS.Add(cost)
	}
	return cost
}

// OnTick implements xen.Policy: each running VCPU's uncore penalty is
// refreshed under the global lock.
func (s *BRM) OnTick(h *xen.Hypervisor, v *xen.VCPU) {
	cpm := h.Top.CyclesPerMicrosecond()
	cost := h.Config.PMUUpdateMicros + s.lockCost(h)
	if s.lockUpdates != nil {
		s.lockUpdates.Inc()
	}
	v.AddOverhead(cost*cpm, cpm)
	h.SampleOverhead += sim.Duration(h.Config.PMUUpdateMicros)
}

// PickNext implements xen.Policy: own queue first, then biased-random
// stealing — candidates whose memory is local to p look exponentially more
// attractive; with probability Epsilon the choice is uniform.
func (s *BRM) PickNext(h *xen.Hypervisor, p *xen.PCPU) *xen.VCPU {
	if p.HeadIsRunnableUnder() {
		return h.NextLocal(p)
	}
	idle := p.PeekHead() == nil
	cands := s.cands[:0]
	for _, q := range h.PCPUs {
		if q == p {
			continue
		}
		queue := q.Queue()
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if !v.CanSteal() {
				continue
			}
			if !idle && v.Priority != xen.PrioUnder {
				continue
			}
			cands = append(cands, brmCand{v, q}) //vet:alloc s.cands is reused; grows to population size during warmup
		}
	}
	s.cands = cands
	if len(cands) == 0 {
		return h.NextLocal(p)
	}
	var idx int
	if h.RNG.Float64() < s.Epsilon {
		//vet:alloc the inlined Intn's panic message; cands is non-empty here, so that crash path never runs
		idx = h.RNG.Intn(len(cands))
	} else {
		weights := s.weights[:0]
		for _, c := range cands {
			weights = append(weights, 1/(0.05+s.penaltyOn(h, c.v, p.Node))) //vet:alloc s.weights is reused; grows to candidate count during warmup
		}
		s.weights = weights
		idx = h.RNG.Pick(weights)
	}
	c := cands[idx]
	if !c.q.Remove(c.v) {
		return nil
	}
	if h.Tele != nil {
		h.Tele.NoteSteal(c.q.Node == p.Node)
	}
	return c.v
}

// penaltyOn estimates the uncore penalty of running v on node: the remote
// fraction of its pages weighted by its measured pressure. All
// performance-degrading factors are folded into one number — the paper's
// §I criticism of BRM.
func (s *BRM) penaltyOn(h *xen.Hypervisor, v *xen.VCPU, node numa.NodeID) float64 {
	remote := v.PageDist.RemoteFraction(node)
	return remote * (1 + v.LLCPressure/10)
}

// Period implements xen.Policy.
func (s *BRM) Period() sim.Duration { return s.SamplePeriod }

// OnPeriod implements xen.Policy: refresh the per-VCPU characteristics the
// penalty estimate reads (under the lock).
func (s *BRM) OnPeriod(h *xen.Hypervisor) {
	h.SampleAll(s.Analyzer)
	cpm := h.Top.CyclesPerMicrosecond()
	if cost := s.lockCost(h); cost > 0 && len(h.PCPUs) > 0 && h.PCPUs[0].Current != nil {
		h.PCPUs[0].Current.AddOverhead(cost*cpm, cpm)
	}
}
