// Package telemetry is the deterministic, virtual-time metrics subsystem.
//
// Instrumented code pre-registers typed handles — Counter, Gauge,
// Histogram — in a Registry before the simulation starts, then updates
// them through direct field access on hot paths (an update is a plain
// float64 store; no locks, no maps, no allocation). A Sampler snapshots
// every registered series into an in-memory time-series ring at a fixed
// virtual-time period (default every simulated second, aligned with the
// PMU sampling period of the vProbe policies). The ring is exported as
// JSONL (one record per sample) and the final cumulative state as
// Prometheus text exposition.
//
// Determinism contract: nothing in this package reads wall-clock time or
// randomness; sampling is driven entirely by the owning sim.Engine, and
// every export walks series in registration order — never map order — so
// output bytes are identical across runs and worker counts. Telemetry
// must also never feed back into the simulation: handles are write-only
// from the model's point of view, and sample hooks only read model state.
//
// Memory discipline: registration happens once, up front; after the
// sampler starts the registry is sealed. The ring is preallocated at
// Start, so steady-state sampling performs zero allocations (enforced by
// the AllocsPerRun guardrails in this package's tests and internal/xen's).
package telemetry

import (
	"fmt"
	"sort"
)

// Kind is the metric type of a registered series.
type Kind uint8

// Metric kinds, with their Prometheus TYPE names.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is one key="value" pair attached to a series at registration.
type Label struct {
	Key, Value string
}

// Counter is a monotonically non-decreasing value (events counted since
// the start of the run). Updates are plain stores: handles are owned by
// exactly one single-threaded simulation.
type Counter struct {
	v float64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v++ }

// Add adds d, which must be non-negative for the counter to keep its
// monotonic meaning (not checked on the hot path).
func (c *Counter) Add(d float64) { c.v += d }

// Value returns the current total.
func (c *Counter) Value() float64 { return c.v }

// Gauge is an instantaneous value that can go up and down.
type Gauge struct {
	v float64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add adjusts the value by d.
func (g *Gauge) Add(d float64) { g.v += d }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram accumulates observations into fixed buckets chosen at
// registration. Observe is allocation-free; bucket counts are stored
// per-bin and cumulated only at export time.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []uint64  // per-bin counts, counts[i] covers (bounds[i-1], bounds[i]]
	over   uint64    // observations above the last bound
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.sum += v
	h.count++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.over++
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// series is one registered metric with its rendered identity.
type series struct {
	name string // metric name without labels
	id   string // name plus rendered label block (Prometheus form)
	help string
	kind Kind
	// describe marks the first series of its name, which the exposition
	// precedes with the name's HELP and TYPE lines.
	describe bool
	// A histogram's exposition ids: one _bucket per bound and +Inf, then
	// _sum and _count.
	bucketIDs      []string
	sumID, countID string

	c *Counter
	g *Gauge
	h *Histogram
}

// Registry holds the registered series, in registration order. It is not
// safe for concurrent registration; register everything up front, before
// the simulation (and any host-advance parallelism) starts.
type Registry struct {
	series []*series
	byID   map[string]*series // duplicate detection only; never ranged
	byName map[string]Kind    // name -> kind consistency check
	sealed bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byID:   make(map[string]*series),
		byName: make(map[string]Kind),
	}
}

// renderID renders the Prometheus series id: name{k="v",...} with labels
// sorted by key so the same label set always renders the same id.
func renderID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	id := name + "{"
	for i, l := range ls {
		if i > 0 {
			id += ","
		}
		id += fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return id + "}"
}

// register validates and appends one series.
func (r *Registry) register(name, help string, kind Kind, labels []Label) *series {
	if r.sealed {
		panic(fmt.Sprintf("telemetry: register %q after the sampler started", name))
	}
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	if k, ok := r.byName[name]; ok && k != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %v (was %v)", name, kind, k))
	}
	id := renderID(name, labels)
	if _, ok := r.byID[id]; ok {
		panic(fmt.Sprintf("telemetry: duplicate series %q", id))
	}
	_, named := r.byName[name]
	s := &series{name: name, id: id, help: help, kind: kind, describe: !named}
	r.series = append(r.series, s)
	r.byID[id] = s
	r.byName[name] = kind
	return s
}

// Counter registers (and returns) a counter series. Registering a
// duplicate (name, labels) pair, an invalid name, or the same name under
// a different kind panics: registration happens at build time, where a
// loud failure is a programming-error report, not a runtime hazard.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, KindCounter, labels)
	s.c = &Counter{}
	return s.c
}

// Gauge registers (and returns) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, KindGauge, labels)
	s.g = &Gauge{}
	return s.g
}

// Histogram registers (and returns) a histogram series with the given
// ascending bucket upper bounds (the +Inf bucket is implicit). The bounds
// slice is copied.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q with no buckets", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not ascending", name))
		}
	}
	s := r.register(name, help, KindHistogram, labels)
	s.h = &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)),
	}
	le := make([]Label, len(labels)+1)
	copy(le, labels)
	for _, b := range bounds {
		le[len(labels)] = Label{Key: "le", Value: formatFloat(b)}
		s.bucketIDs = append(s.bucketIDs, renderID(name+"_bucket", le))
	}
	le[len(labels)] = Label{Key: "le", Value: "+Inf"}
	s.bucketIDs = append(s.bucketIDs, renderID(name+"_bucket", le))
	s.sumID = renderID(name+"_sum", labels)
	s.countID = renderID(name+"_count", labels)
	return s.h
}

// Len returns the number of registered series.
func (r *Registry) Len() int { return len(r.series) }

// seal freezes the registry; further registration panics.
func (r *Registry) seal() { r.sealed = true }

// validMetricName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		alpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}
