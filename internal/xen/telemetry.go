package xen

import (
	"vprobe/internal/core"
	"vprobe/internal/telemetry"
)

// quantumBucketsUS are the quantum-length histogram bounds in
// microseconds: sub-millisecond housekeeping bursts up to the full 30 ms
// timeslice (+Inf catches configs with longer slices).
var quantumBucketsUS = []float64{100, 1000, 5000, 10000, 20000, 30000}

// Telemetry is the hypervisor's pre-bound handle set. All handles are
// registered once by AttachTelemetry; hot paths guard on h.Tele != nil
// and then update plain fields — no lookups, no allocation. The gauges
// are refreshed by the sampler hook just before each snapshot.
type Telemetry struct {
	// Dispatches counts quantum dispatches (Algorithm 2 runs once per
	// idle-PCPU dispatch attempt).
	Dispatches *telemetry.Counter
	// StealsLocal / StealsRemote count work-stealing migrations by
	// whether the victim queue was on the stealer's node.
	StealsLocal  *telemetry.Counter
	StealsRemote *telemetry.Counter
	// Reassignments counts Algorithm 1 per-period VCPU->node assignments.
	Reassignments *telemetry.Counter
	// QuantumUS observes the effective length of every completed quantum.
	QuantumUS *telemetry.Histogram
	// CensusFR/FI/T hold the LLC class census of the last sampling period
	// (Eq. 3): frequent, infrequent, and trivial LLC-access VCPUs.
	CensusFR *telemetry.Gauge
	CensusFI *telemetry.Gauge
	CensusT  *telemetry.Gauge
	// RunqDepth is the total number of queued (runnable, not running)
	// VCPUs at sample time.
	RunqDepth *telemetry.Gauge
	// RemoteRatio is the lifetime remote-access ratio across all VCPUs.
	RemoteRatio *telemetry.Gauge
	// OverheadUS is the cumulative sampling+partitioning overhead time
	// (the Table III numerator) in microseconds.
	OverheadUS *telemetry.Gauge
	// EventsFired / EventsPending / EventPoolSize expose the sim layer:
	// cumulative events executed, queue depth, and free-list size.
	EventsFired   *telemetry.Gauge
	EventsPending *telemetry.Gauge
	EventPoolSize *telemetry.Gauge
	// EventsPerQuantum is engine events fired per dispatch over the last
	// sample interval.
	EventsPerQuantum *telemetry.Gauge

	h             *Hypervisor
	lastFired     uint64
	lastDispatchN float64
}

// PolicyTelemetry is implemented by scheduling policies that export their
// own series (e.g. BRM's global-lock convoy metrics). AttachTelemetry
// forwards the registry and label set to the hypervisor's policy when it
// implements this.
type PolicyTelemetry interface {
	AttachTelemetry(reg *telemetry.Registry, labels ...telemetry.Label)
}

// AttachTelemetry registers the hypervisor's series in reg (tagged with
// labels, e.g. host="host3" in a cluster), binds the handle set to h, and
// hooks the gauge refresh into s. Call it once per hypervisor, before the
// sampler starts. Attaching telemetry never changes simulation results:
// updates are write-only stores and the sample hook only reads.
func AttachTelemetry(h *Hypervisor, s *telemetry.Sampler, labels ...telemetry.Label) *Telemetry {
	reg := s.Registry()
	// with puts one label before the caller's. The registry keeps none of
	// the labels it is handed, so one buffer serves every call.
	var buf [4]telemetry.Label
	with := func(key, value string) []telemetry.Label {
		return append(append(buf[:0], telemetry.Label{Key: key, Value: value}), labels...)
	}
	t := &Telemetry{
		Dispatches: reg.Counter("xen_dispatches_total",
			"Quantum dispatches (VCPU starts running on a PCPU).", labels...),
		StealsLocal: reg.Counter("xen_steals_total",
			"Work-stealing migrations by victim locality.", with("kind", "local")...),
		StealsRemote: reg.Counter("xen_steals_total",
			"Work-stealing migrations by victim locality.", with("kind", "remote")...),
		Reassignments: reg.Counter("xen_partition_reassignments_total",
			"Algorithm 1 VCPU-to-node assignments applied at period ends.", labels...),
		QuantumUS: reg.Histogram("xen_quantum_us",
			"Effective quantum length in microseconds.", quantumBucketsUS, labels...),
		CensusFR: reg.Gauge("xen_llc_class_vcpus",
			"VCPUs per LLC class in the last sampling period.", with("class", "fr")...),
		CensusFI: reg.Gauge("xen_llc_class_vcpus",
			"VCPUs per LLC class in the last sampling period.", with("class", "fi")...),
		CensusT: reg.Gauge("xen_llc_class_vcpus",
			"VCPUs per LLC class in the last sampling period.", with("class", "t")...),
		RunqDepth: reg.Gauge("xen_runq_depth",
			"Queued runnable VCPUs across all PCPUs.", labels...),
		RemoteRatio: reg.Gauge("xen_remote_access_ratio",
			"Lifetime remote-memory-access ratio.", labels...),
		OverheadUS: reg.Gauge("xen_sample_overhead_us",
			"Cumulative PMU sampling and partitioning overhead (Table III numerator).",
			labels...),
		EventsFired: reg.Gauge("sim_events_fired",
			"Cumulative simulation events executed.", labels...),
		EventsPending: reg.Gauge("sim_events_pending",
			"Events waiting in the engine queue.", labels...),
		EventPoolSize: reg.Gauge("sim_event_pool_size",
			"Recycled events in the engine free list.", labels...),
		EventsPerQuantum: reg.Gauge("sim_events_per_quantum",
			"Engine events fired per dispatch over the last sample interval.",
			labels...),
		h: h,
	}
	h.Tele = t
	s.OnSample(t.sample)
	if pt, ok := h.Policy.(PolicyTelemetry); ok {
		pt.AttachTelemetry(reg, labels...)
	}
	return t
}

// NoteSteal classifies one successful steal. Policies call it after
// removing the victim from its queue; local reports whether the victim
// queue was on the stealing PCPU's node.
func (t *Telemetry) NoteSteal(local bool) {
	if local {
		t.StealsLocal.Inc()
	} else {
		t.StealsRemote.Inc()
	}
}

// sample refreshes the derived gauges. It must only read: the sampler
// runs it between simulation events, and byte-identical results with
// telemetry on or off depend on it having no side effects on the model.
func (t *Telemetry) sample() {
	h := t.h
	depth := 0
	for _, p := range h.PCPUs {
		depth += p.QueueLen()
	}
	t.RunqDepth.Set(float64(depth))

	var total, remote float64
	for _, v := range h.vcpus {
		total += v.Counters.Total()
		remote += v.Counters.Remote
	}
	ratio := 0.0
	if total > 0 {
		ratio = remote / total
	}
	t.RemoteRatio.Set(ratio)
	t.OverheadUS.Set(float64(h.SampleOverhead))

	fired := h.Engine.Fired()
	t.EventsFired.Set(float64(fired))
	t.EventsPending.Set(float64(h.Engine.Pending()))
	t.EventPoolSize.Set(float64(h.Engine.PoolSize()))
	dispatches := t.Dispatches.Value()
	if dq := dispatches - t.lastDispatchN; dq > 0 {
		t.EventsPerQuantum.Set(float64(fired-t.lastFired) / dq)
	} else {
		t.EventsPerQuantum.Set(0)
	}
	t.lastFired, t.lastDispatchN = fired, dispatches
}

// noteCensus publishes the period's LLC class census from the analyzer
// stats (called by SampleAll while the stats are hot).
func (t *Telemetry) noteCensus(stats []core.Stat) {
	var fr, fi, tr float64
	for i := range stats {
		switch stats[i].Type {
		case core.TypeFR:
			fr++
		case core.TypeFI:
			fi++
		case core.TypeT:
			tr++
		}
	}
	t.CensusFR.Set(fr)
	t.CensusFI.Set(fi)
	t.CensusT.Set(tr)
}
