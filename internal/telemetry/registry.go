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
// A run owns only its numbers: series descriptors (names, rendered ids,
// help) and the order they were registered in are interned once per
// process and shared by every registry that registers the same series,
// and Sampler.Seal cuts a finished run down to its values and sample
// rows, which both exports render from.
package telemetry

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
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
// the start of the run). The handle points at the counter's slot in its
// registry's value array; updates are plain stores, because handles are
// owned by exactly one single-threaded simulation.
type Counter float64

// Inc adds 1.
func (c *Counter) Inc() { *c++ }

// Add adds d, which must be non-negative for the counter to keep its
// monotonic meaning (not checked on the hot path).
func (c *Counter) Add(d float64) { *c += Counter(d) }

// Value returns the current total.
func (c *Counter) Value() float64 { return float64(*c) }

// Gauge is an instantaneous value that can go up and down, kept in its
// registry's value array like a Counter.
type Gauge float64

// Set replaces the value.
func (g *Gauge) Set(v float64) { *g = Gauge(v) }

// Add adjusts the value by d.
func (g *Gauge) Add(d float64) { *g += Gauge(d) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return float64(*g) }

// Histogram accumulates observations into fixed buckets chosen at
// registration. Observe is allocation-free; its values live in the
// registry's value array, stored per bin and cumulated only at export
// time.
type Histogram struct {
	bounds []float64 // ascending upper bounds, shared with the series' descriptor
	// v holds one count per bin — v[i] covers (bounds[i-1], bounds[i]],
	// v[len(bounds)] the observations above the last bound — then the sum
	// and the count.
	v []float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	n := len(h.bounds)
	h.v[n+1] += v
	h.v[n+2]++
	for i, b := range h.bounds {
		if v <= b {
			h.v[i]++
			return
		}
	}
	h.v[n]++
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.v[len(h.bounds)+1] }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return uint64(h.v[len(h.bounds)+2]) }

// desc is one interned series descriptor: everything about a series but
// its values. Each distinct descriptor is built, and its ids rendered,
// once per process; every registry that registers the series shares it.
type desc struct {
	name string // metric name without labels
	id   string // name plus rendered label block (Prometheus form)
	help string
	kind Kind
	// A histogram's bucket upper bounds and exposition ids: one _bucket
	// per bound and +Inf, then _sum and _count.
	bounds         []float64
	bucketIDs      []string
	sumID, countID string
	// cellIDs are the JSONL keys of the series' ring cells, label values
	// unquoted: its id, or a histogram's _sum and _count ids.
	cellIDs []string
}

// width is the number of values a registry keeps for the series.
func (d *desc) width() int {
	if d.kind == KindHistogram {
		return len(d.bounds) + 3
	}
	return 1
}

// layout is one interned registration sequence: the series a registry
// has registered, in order, the last of them d. Layouts form a trie
// rooted at the empty sequence. A registry starts at the root and steps
// to a child per registration, so registries that register the same
// series in the same order share one layout and own only their values.
type layout struct {
	d *desc
	// describe marks the first series of its name in the sequence, which
	// the exposition precedes with the name's HELP and TYPE lines.
	describe bool
	// The series' values are vals[chunk][off:off+d.width()] of a registry
	// on this layout; room is that chunk's capacity. Placement depends on
	// the sequence alone, so it holds for every registry that shares it.
	chunk, off, room int
	// cells counts the ring cells of the whole sequence.
	cells int
	// seq is the sequence: seq[len(seq)-1] is this layout.
	seq      []*layout
	children []*layout
	// extended marks that a child has appended to seq's backing array in
	// place; later children copy it.
	extended bool
}

// Value chunks start at firstChunk values and double per chunk up to
// firstChunk<<maxChunkShift, so a registry wastes at most half of what it
// holds and a 1000-host cluster needs about ten chunks.
const (
	firstChunk    = 32
	maxChunkShift = 10
)

// place returns where the values of a series of width w registered after
// l go: the rest of l's chunk when they fit, else a fresh chunk.
func (l *layout) place(w int) (chunk, off, room int) {
	end := l.off
	if l.d != nil {
		end += l.d.width()
	}
	if l.chunk >= 0 && end+w <= l.room {
		return l.chunk, end, l.room
	}
	return l.chunk + 1, 0, max(firstChunk<<min(l.chunk+1, maxChunkShift), w)
}

// child returns l's interned successor registering d, or nil.
func (l *layout) child(d *desc) *layout {
	for _, c := range l.children {
		if c.d == d {
			return c
		}
	}
	return nil
}

// extend interns l's successor registering d. interned.mu is held.
func (l *layout) extend(d *desc, describe bool) *layout {
	n := &layout{d: d, describe: describe, cells: l.cells + len(d.cellIDs)}
	n.chunk, n.off, n.room = l.place(d.width())
	if l.extended {
		n.seq = append(make([]*layout, 0, 2*len(l.seq)+1), l.seq...)
	} else {
		n.seq, l.extended = l.seq, true
	}
	n.seq = append(n.seq, n)
	l.children = append(l.children, n)
	interned.layouts++
	return n
}

// interned is the process's intern table of descriptors and layouts. It
// grows with distinct series and distinct registration sequences only:
// a registry that repeats a known sequence adds nothing to it.
var interned = struct {
	mu      sync.Mutex
	descs   map[string]*desc
	root    layout
	layouts int
	key     []byte // descriptor lookup key scratch
}{descs: make(map[string]*desc), root: layout{chunk: -1}}

// Interned returns the intern table's size: distinct series descriptors
// and distinct registration-sequence steps seen by this process.
func Interned() (descs, layouts int) {
	interned.mu.Lock()
	defer interned.mu.Unlock()
	return len(interned.descs), interned.layouts
}

// internDesc returns the descriptor of one registration, building it on
// first use. interned.mu is held.
func internDesc(name, help string, kind Kind, labels []Label, bounds []float64) *desc {
	k := append(interned.key[:0], byte(kind))
	k = appendKeyString(k, name)
	k = appendKeyString(k, help)
	k = binary.AppendUvarint(k, uint64(len(labels)))
	for _, l := range labels {
		k = appendKeyString(appendKeyString(k, l.Key), l.Value)
	}
	for _, b := range bounds {
		k = binary.LittleEndian.AppendUint64(k, math.Float64bits(b))
	}
	interned.key = k
	if d, ok := interned.descs[string(k)]; ok {
		return d
	}
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	id := renderID(name, labels)
	d := &desc{name: name, id: id, help: help, kind: kind, cellIDs: []string{jsonKey(id)}}
	if kind == KindHistogram {
		if len(bounds) == 0 {
			panic(fmt.Sprintf("telemetry: histogram %q with no buckets", name))
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("telemetry: histogram %q buckets not ascending", name))
			}
		}
		d.bounds = append([]float64(nil), bounds...)
		le := make([]Label, len(labels)+1)
		copy(le, labels)
		for _, b := range bounds {
			le[len(labels)] = Label{Key: "le", Value: formatFloat(b)}
			d.bucketIDs = append(d.bucketIDs, renderID(name+"_bucket", le))
		}
		le[len(labels)] = Label{Key: "le", Value: "+Inf"}
		d.bucketIDs = append(d.bucketIDs, renderID(name+"_bucket", le))
		d.sumID = renderID(name+"_sum", labels)
		d.countID = renderID(name+"_count", labels)
		d.cellIDs = []string{jsonKey(d.sumID), jsonKey(d.countID)}
	}
	interned.descs[string(k)] = d
	return d
}

// appendKeyString appends s to a descriptor key, length first, so no two
// registrations share a key.
func appendKeyString(k []byte, s string) []byte {
	return append(binary.AppendUvarint(k, uint64(len(s))), s...)
}

// jsonKey strips the quotes from a series id's label values
// (`name{k=v}`), which leaves a JSON key free of characters needing
// escapes (ids are built from metric names and label literals only).
func jsonKey(id string) string {
	return strings.ReplaceAll(id, `"`, "")
}

// Registry holds one run's series: an interned layout and the values it
// places. It is not safe for concurrent registration; register everything
// up front, before the simulation (and any host-advance parallelism)
// starts.
type Registry struct {
	at   *layout     // the series registered so far
	vals [][]float64 // value chunks, placed by at
	// ids and names check registrations for duplicate ids and kind
	// clashes. A registry builds them only once it registers a sequence
	// no registry has registered before (a known sequence was checked
	// when it was interned), and drops them when sealed.
	ids    map[string]bool
	names  map[string]Kind
	sealed bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{at: &interned.root}
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

// register validates one series, steps the registry's layout past it and
// returns the values it places.
func (r *Registry) register(name, help string, kind Kind, labels []Label, bounds []float64) (*desc, []float64) {
	if r.sealed {
		panic(fmt.Sprintf("telemetry: register %q after the sampler started", name))
	}
	interned.mu.Lock()
	defer interned.mu.Unlock()
	d := internDesc(name, help, kind, labels, bounds)
	n := r.at.child(d)
	if n == nil || r.ids != nil {
		named := r.check(d)
		if n == nil {
			n = r.at.extend(d, !named)
		}
	}
	r.at = n
	if n.chunk == len(r.vals) {
		r.vals = append(r.vals, make([]float64, n.room))
	}
	return d, r.vals[n.chunk][n.off : n.off+d.width()]
}

// check runs the registration checks for d against the series so far,
// building the maps on first use, and records d. It reports whether d's
// name was registered before.
func (r *Registry) check(d *desc) bool {
	if r.ids == nil {
		r.ids = make(map[string]bool, len(r.at.seq)+1)
		r.names = make(map[string]Kind)
		for _, n := range r.at.seq {
			r.ids[n.d.id] = true
			r.names[n.d.name] = n.d.kind
		}
	}
	k, named := r.names[d.name]
	if named && k != d.kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %v (was %v)", d.name, d.kind, k))
	}
	if r.ids[d.id] {
		panic(fmt.Sprintf("telemetry: duplicate series %q", d.id))
	}
	r.ids[d.id] = true
	r.names[d.name] = d.kind
	return named
}

// values returns the values of series n.
func (r *Registry) values(n *layout) []float64 {
	return r.vals[n.chunk][n.off : n.off+n.d.width()]
}

// Counter registers (and returns) a counter series. Registering a
// duplicate (name, labels) pair, an invalid name, or the same name under
// a different kind panics: registration happens at build time, where a
// loud failure is a programming-error report, not a runtime hazard.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	_, v := r.register(name, help, KindCounter, labels, nil)
	return (*Counter)(&v[0])
}

// Gauge registers (and returns) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	_, v := r.register(name, help, KindGauge, labels, nil)
	return (*Gauge)(&v[0])
}

// Histogram registers (and returns) a histogram series with the given
// ascending bucket upper bounds (the +Inf bucket is implicit). The bounds
// slice is copied.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	d, v := r.register(name, help, KindHistogram, labels, bounds)
	return &Histogram{bounds: d.bounds, v: v}
}

// seal freezes the registry and drops its registration checks; further
// registration panics.
func (r *Registry) seal() {
	r.sealed = true
	r.ids, r.names = nil, nil
}

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
