package sched

import (
	"vprobe/internal/core"
	"vprobe/internal/sim"
	"vprobe/internal/xen"
)

// VProbe is the paper's full scheduler: PMU data analyzer + VCPU
// periodical partitioning (Algorithm 1) + NUMA-aware load balance
// (Algorithm 2).
type VProbe struct {
	// Analyzer computes per-VCPU characteristics (Eqs. 1–3).
	Analyzer *core.Analyzer
	// SamplePeriod is the partitioning cadence (paper default: 1 s).
	SamplePeriod sim.Duration
	// Dynamic, when non-nil, adapts the classification bounds each
	// period (the §VI future-work extension).
	Dynamic *core.DynamicBounds
	// DisableAffinity is an ablation switch: Algorithm 1 runs with all
	// affinity information erased, isolating the value of Eq. 1.
	DisableAffinity bool
	// DisablePartition is an ablation switch turning vProbe into LB.
	DisablePartition bool
	// DisableNUMALB is an ablation switch turning vProbe into VCPU-P.
	DisableNUMALB bool

	// OnPeriod's reusable buffers: the dynamic-bounds pressure vector
	// and Algorithm 1's scratch, made at the first pass that needs it (a
	// scheduler instance serves one hypervisor, so one set suffices).
	pressures []float64
	partition *core.PartitionScratch
}

// NewVProbe returns the full scheduler with the paper's constants
// (α = 1000, bounds (3, 20), 1 s sampling period).
func NewVProbe() *VProbe {
	return &VProbe{
		Analyzer:     core.NewAnalyzer(),
		SamplePeriod: sim.Second,
	}
}

// Name implements xen.Policy.
func (s *VProbe) Name() string {
	switch {
	case s.DisablePartition && s.DisableNUMALB:
		return "vProbe(neither)"
	case s.DisablePartition:
		return "LB"
	case s.DisableNUMALB:
		return "VCPU-P"
	case s.Dynamic != nil:
		return "vProbe(dynamic)"
	case s.DisableAffinity:
		return "vProbe(no-affinity)"
	default:
		return "vProbe"
	}
}

// UsesPMU implements xen.Policy.
func (*VProbe) UsesPMU() bool { return true }

// NUMAAwareBalance implements xen.Policy: vProbe and LB keep periodic
// re-placement on the local node; the VCPU-P ablation retains the default
// oblivious balancing (the paper's point about its weakness).
func (s *VProbe) NUMAAwareBalance() bool { return !s.DisableNUMALB }

// PickNext implements xen.Policy: the same csched_schedule skeleton as
// Credit (run an UNDER local head, balance otherwise), with Algorithm 2
// replacing the NUMA-oblivious steal. The VCPU-P ablation keeps the
// default Credit stealing.
func (s *VProbe) PickNext(h *xen.Hypervisor, p *xen.PCPU) *xen.VCPU {
	if p.HeadIsRunnableUnder() {
		return h.NextLocal(p)
	}
	idle := p.PeekHead() == nil
	var v *xen.VCPU
	if s.DisableNUMALB {
		v = h.CreditSteal(p, idle)
	} else {
		// Algorithm 2 is an idle-PCPU mechanism; the head-is-OVER
		// balancing path stays on the local node, so only a genuinely
		// idle PCPU ever pulls work across sockets.
		v = h.NUMAAwareSteal(p, !idle, !idle)
	}
	if v != nil {
		return v
	}
	return h.NextLocal(p)
}

// OnTick implements xen.Policy: the running VCPU's counters are refreshed
// every 10 ms (§IV-B), costing one PMU read.
func (s *VProbe) OnTick(h *xen.Hypervisor, v *xen.VCPU) {
	h.ChargePMURead(v)
}

// Period implements xen.Policy.
func (s *VProbe) Period() sim.Duration { return s.SamplePeriod }

// OnPeriod implements xen.Policy: sample all VCPUs, optionally adapt
// bounds, and run the periodical partitioning.
//
//vprobe:hotpath
func (s *VProbe) OnPeriod(h *xen.Hypervisor) {
	stats := h.SampleAll(s.Analyzer)
	if s.Dynamic != nil {
		ps := s.pressures[:0]
		for _, st := range stats {
			ps = append(ps, st.Pressure) //vet:alloc s.pressures is reused; grows to the VCPU count during warmup
		}
		s.pressures = ps
		s.Dynamic.Observe(ps)
		s.Analyzer.Bounds = s.Dynamic.Current()
	}
	if s.DisablePartition {
		return
	}
	if s.DisableAffinity {
		for i := range stats {
			stats[i].Affinity = 0
		}
	}
	if s.partition == nil {
		s.partition = new(core.PartitionScratch) //vet:alloc once per scheduler, at its first partition pass
	}
	h.ApplyPartition(s.partition.Partition(stats, h.Top.NumNodes()))
}

// NewVCPUP returns the VCPU-P ablation: periodical partitioning with the
// default Credit load balancing.
func NewVCPUP() *VProbe {
	s := NewVProbe()
	s.DisableNUMALB = true
	return s
}

// NewLB returns the LB ablation: NUMA-aware load balancing only (the PMU
// analyzer still runs so stealing has pressures to compare, but no
// partitioning happens).
func NewLB() *VProbe {
	s := NewVProbe()
	s.DisablePartition = true
	return s
}
