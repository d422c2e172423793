// Span tracing over virtual time: the "flight recorder" for placement
// decisions. A Tracer records parent/child spans (VM lifecycle, placement
// decisions, per-plugin filter/score verdicts, migration and preemption
// chains) into preallocated chunked storage. Span IDs are derived
// deterministically from the run seed and the record sequence number, so
// two runs of the same seed — at any worker count — produce byte-identical
// span files. Recording never mutates model state, consumes randomness, or
// schedules events: simulation output is byte-identical with tracing on or
// off.
package telemetry

import (
	"vprobe/internal/sim"
)

// SpanKind classifies a span. Kinds are closed strings (not an enum int)
// so span files stay self-describing in JSONL and Chrome exports.
type SpanKind string

const (
	SpanRun        SpanKind = "run"        // whole run, root of the tree
	SpanDomain     SpanKind = "domain"     // single-host domain lifetime
	SpanVM         SpanKind = "vm"         // cluster VM lifecycle: arrive→depart/reject
	SpanPlace      SpanKind = "place"      // one placement decision
	SpanFilter     SpanKind = "filter"     // per-plugin filter verdict within a decision
	SpanScore      SpanKind = "score"      // per-plugin score of the winner
	SpanCandidate  SpanKind = "candidate"  // per-host total in the decision's top-N
	SpanMigrate    SpanKind = "migrate"    // live migration, priced by the page-copy model
	SpanPreempt    SpanKind = "preempt"    // victim eviction on behalf of a beneficiary
	SpanGang       SpanKind = "gang"       // all-or-nothing gang admission
	SpanBackfill   SpanKind = "backfill"   // small VM admitted past a blocked head
	SpanDeschedule SpanKind = "deschedule" // consolidation drain decision
	SpanRetry      SpanKind = "retry"      // admission retry with backoff
	SpanReject     SpanKind = "reject"     // terminal admission rejection
	SpanPoint      SpanKind = "point"      // generic instant annotation
)

// Span is one recorded interval (or instant) of virtual time. Score and
// Cost are optional decorations: Score carries a plugin or total placement
// score, Cost carries a virtual-time price from the migration cost model
// (e.g. a migration blackout). The zero End on an open span is resolved by
// CloseOpen at the run horizon.
type Span struct {
	ID     uint64
	Parent uint64 // 0 for roots
	Kind   SpanKind
	Name   string
	Host   string
	VM     string
	Start  sim.Time
	End    sim.Time
	Score  float64
	Cost   sim.Duration
	Detail string

	hasScore bool
	hasCost  bool
	open     bool
}

// SpanRef is a handle to a recorded span: an index into the tracer's
// storage, stable for the tracer's lifetime. NoSpan is the nil handle;
// every Tracer method accepts it and does nothing, so call sites can
// thread refs without guarding each decoration.
type SpanRef int32

// NoSpan is the absent span handle (dropped by limit, or tracing off).
const NoSpan SpanRef = -1

// spanChunkRows is the per-chunk span count. Chunked storage means a
// recorded span never moves: refs and interior pointers stay valid while
// the tracer grows, and appends never copy earlier chunks.
const spanChunkRows = 1024

// DefaultSpanLimit bounds a tracer that was not given an explicit limit.
// One decision records ~10 spans; a million spans covers ~100k placement
// decisions — far past any committed experiment — while bounding the
// recorder to tens of MB.
const DefaultSpanLimit = 1 << 20

// Tracer records spans with deterministic IDs. It is not safe for
// concurrent use: in cluster runs all recording happens on the cluster
// engine goroutine (decisions are serialized there even at workers 8),
// and single-host runs are single-threaded.
type Tracer struct {
	seed    uint64
	limit   int
	chunks  [][]Span
	n       int
	dropped int
}

// NewTracer builds a tracer whose span IDs derive from seed. A
// non-positive limit defaults to DefaultSpanLimit; once the limit is
// reached further Begin/Point calls return NoSpan and count as dropped.
func NewTracer(seed uint64, limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	return &Tracer{seed: seed, limit: limit}
}

// splitmix64 is the SplitMix64 output function: a bijective mixer, so
// distinct sequence numbers never collide for a fixed seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// spanID derives the deterministic ID of the seq-th span of this run.
func (t *Tracer) spanID(seq int) uint64 {
	id := splitmix64(t.seed ^ splitmix64(uint64(seq)+1))
	if id == 0 {
		id = 1 // 0 means "no parent" on the wire
	}
	return id
}

// span returns the storage of ref, or nil for NoSpan.
func (t *Tracer) span(ref SpanRef) *Span {
	if t == nil || ref < 0 || int(ref) >= t.n {
		return nil
	}
	return &t.chunks[ref/spanChunkRows][ref%spanChunkRows]
}

// Begin records an open span starting at 'at' under parent (NoSpan for a
// root) and returns its handle. Returns NoSpan once the limit is reached.
func (t *Tracer) Begin(at sim.Time, parent SpanRef, kind SpanKind, host, vm, name string) SpanRef {
	if t == nil {
		return NoSpan
	}
	if t.n >= t.limit {
		t.dropped++
		return NoSpan
	}
	if t.n == len(t.chunks)*spanChunkRows {
		t.chunks = append(t.chunks, make([]Span, spanChunkRows))
	}
	ref := SpanRef(t.n)
	t.n++
	var pid uint64
	if ps := t.span(parent); ps != nil {
		pid = ps.ID
	}
	*t.span(ref) = Span{
		ID: t.spanID(int(ref)), Parent: pid, Kind: kind, Name: name,
		Host: host, VM: vm, Start: at, End: at, open: true,
	}
	return ref
}

// End closes ref at 'at'. Closing NoSpan or an already-closed span is a
// no-op.
func (t *Tracer) End(ref SpanRef, at sim.Time) {
	if s := t.span(ref); s != nil && s.open {
		s.End = at
		s.open = false
	}
}

// Point records a closed instant span (Start == End) and returns its
// handle so callers may still decorate it.
func (t *Tracer) Point(at sim.Time, parent SpanRef, kind SpanKind, host, vm, name, detail string) SpanRef {
	ref := t.Begin(at, parent, kind, host, vm, name)
	if s := t.span(ref); s != nil {
		s.Detail = detail
		s.open = false
	}
	return ref
}

// SetScore decorates ref with a score.
func (t *Tracer) SetScore(ref SpanRef, score float64) {
	if s := t.span(ref); s != nil {
		s.Score = score
		s.hasScore = true
	}
}

// SetCost decorates ref with a virtual-time cost from the cost model.
func (t *Tracer) SetCost(ref SpanRef, cost sim.Duration) {
	if s := t.span(ref); s != nil {
		s.Cost = cost
		s.hasCost = true
	}
}

// SetDetail replaces ref's detail string.
func (t *Tracer) SetDetail(ref SpanRef, detail string) {
	if s := t.span(ref); s != nil {
		s.Detail = detail
	}
}

// Note appends a "; "-separated clause to ref's detail string.
func (t *Tracer) Note(ref SpanRef, clause string) {
	if s := t.span(ref); s != nil {
		if s.Detail != "" {
			s.Detail += "; "
		}
		s.Detail += clause
	}
}

// CloseOpen closes every still-open span at 'at' (the run horizon), so
// exports never contain open intervals.
func (t *Tracer) CloseOpen(at sim.Time) {
	if t == nil {
		return
	}
	for i := 0; i < t.n; i++ {
		if s := t.span(SpanRef(i)); s.open {
			s.End = at
			s.open = false
		}
	}
}

// Seal cuts the storage of a run that has returned to its spans: a last
// chunk with unused rows becomes an exact-length copy, so a kept tracer
// holds 136 B per span and no empty rows. The limit drops to the spans
// held, so a later Begin is dropped rather than recorded.
func (t *Tracer) Seal() {
	if t == nil {
		return
	}
	if k, off := t.n/spanChunkRows, t.n%spanChunkRows; off != 0 {
		t.chunks[k] = append([]Span(nil), t.chunks[k][:off]...)
	}
	t.limit = t.n
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns the number of spans discarded by the limit.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Spans returns a copy of the recorded spans in record order.
func (t *Tracer) Spans() []Span {
	if t == nil || t.n == 0 {
		return nil
	}
	out := make([]Span, t.n)
	for i := range out {
		out[i] = *t.span(SpanRef(i))
	}
	return out
}

// hostOrder returns the distinct non-empty host names of spans in
// first-seen record order; used by the Chrome export's thread mapping.
func hostOrder(spans []Span) []string {
	seen := map[string]bool{}
	var order []string
	for i := range spans {
		h := spans[i].Host
		if h != "" && !seen[h] {
			seen[h] = true
			order = append(order, h)
		}
	}
	return order
}
