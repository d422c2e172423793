package telemetry

import (
	"fmt"
	"io"
	"strconv"

	"vprobe/internal/sim"
)

// preallocRows is the ring's sample-row capacity when Reserve was never
// called. 2048 rows covers over half an hour of simulated time at the
// default one-second period. The ring is a true circular buffer: capacity
// is fixed at Start (set it with Reserve before Start when the horizon is
// known) and snapshots past it overwrite the oldest rows, so the snapshot
// path never allocates no matter how long the run.
const preallocRows = 2048

// cellKind selects how one ring cell reads its source series.
type cellKind uint8

const (
	cellCounter cellKind = iota
	cellGauge
	cellHistSum
	cellHistCount
)

// cell is one column of the time-series ring: a series id plus how to
// read one float64 from its handle. Histograms contribute two cells
// (name_sum, name_count); their per-bucket breakdown is exported through
// the Prometheus endpoint only, keeping rows compact.
type cell struct {
	id   string
	kind cellKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// value reads the cell's current value.
func (cl *cell) value() float64 {
	switch cl.kind {
	case cellCounter:
		return cl.c.v
	case cellGauge:
		return cl.g.v
	case cellHistSum:
		return cl.h.sum
	default:
		return float64(cl.h.count)
	}
}

// Sampler snapshots a Registry's series into an in-memory time-series
// ring at a fixed virtual-time period. Hooks registered with OnSample run
// (in registration order) immediately before each snapshot, so gauges
// derived from model state are fresh in every row.
type Sampler struct {
	reg     *Registry
	period  sim.Duration
	hooks   []func()
	cells   []cell
	capRows int
	times   []sim.Time
	data    []float64 // row-major: capRows rows of len(cells) columns
	rows    int       // total snapshots taken (may exceed capRows)
	started bool
}

// NewSampler builds a sampler over reg. A non-positive period defaults to
// one simulated second (the paper's PMU sampling period).
func NewSampler(reg *Registry, period sim.Duration) *Sampler {
	if period <= 0 {
		period = sim.Second
	}
	return &Sampler{reg: reg, period: period}
}

// Registry returns the registry the sampler snapshots.
func (s *Sampler) Registry() *Registry { return s.reg }

// Period returns the sampling period.
func (s *Sampler) Period() sim.Duration { return s.period }

// Reserve sizes the ring to rows (the largest of several calls) before
// Start. Run entry points that know the horizon call
// Reserve(horizon/period+2), so the ring never wraps, the export covers
// the whole run, and a short run allocates only the rows it can fill.
func (s *Sampler) Reserve(rows int) {
	if s.started {
		panic("telemetry: Reserve after Start")
	}
	if rows > s.capRows {
		s.capRows = rows
	}
}

// OnSample registers a hook to run before each snapshot, after any hooks
// registered earlier. Hooks must only read simulation state (never mutate
// it, consume randomness, or schedule events): the telemetry-off and
// telemetry-on runs of the same seed must stay byte-identical.
func (s *Sampler) OnSample(fn func()) {
	if s.started {
		panic("telemetry: OnSample after Start")
	}
	s.hooks = append(s.hooks, fn)
}

// Start seals the registry, preallocates the ring, and arms the sampling
// ticker on e: the first snapshot lands at one period after the current
// engine time, then every period thereafter. Call it once, after the
// model's own tickers are armed, so same-timestamp model updates (e.g.
// the PMU period pass) order before the snapshot that reads them.
func (s *Sampler) Start(e *sim.Engine) {
	if s.started {
		panic("telemetry: Start called twice")
	}
	s.started = true
	s.reg.seal()
	for _, sr := range s.reg.series {
		switch sr.kind {
		case KindCounter:
			s.cells = append(s.cells, cell{id: sr.id, kind: cellCounter, c: sr.c})
		case KindGauge:
			s.cells = append(s.cells, cell{id: sr.id, kind: cellGauge, g: sr.g})
		case KindHistogram:
			s.cells = append(s.cells,
				cell{id: sr.sumID, kind: cellHistSum, h: sr.h},
				cell{id: sr.countID, kind: cellHistCount, h: sr.h})
		}
	}
	if s.capRows == 0 {
		s.capRows = preallocRows
	}
	s.times = make([]sim.Time, s.capRows)
	s.data = make([]float64, s.capRows*len(s.cells))
	e.Every(s.period, s.period, "telemetry-sample", func(e *sim.Engine) { s.snapshot(e.Now()) })
}

// snapshot runs the hooks and writes one row into the ring, overwriting
// the oldest row once capacity is exceeded. The whole path is
// allocation-free: the backing arrays are sized at Start and only ever
// written in place.
//
//vprobe:hotpath
func (s *Sampler) snapshot(now sim.Time) {
	for _, fn := range s.hooks {
		fn()
	}
	slot := s.rows % s.capRows
	s.rows++
	s.times[slot] = now
	base := slot * len(s.cells)
	for i := range s.cells {
		s.data[base+i] = s.cells[i].value()
	}
}

// Rows returns the number of samples retained in the ring (total taken,
// capped at the ring capacity).
func (s *Sampler) Rows() int {
	if s.rows > s.capRows && s.capRows > 0 {
		return s.capRows
	}
	return s.rows
}

// row maps a logical row (0 = oldest retained) to its ring slot.
func (s *Sampler) row(logical int) int {
	if s.rows <= s.capRows {
		return logical
	}
	return (s.rows + logical) % s.capRows
}

// WriteJSONL exports the ring as JSON Lines: one object per sample, with
// "t" (the sample's virtual time in seconds) first and then one key per
// cell in registration order. Label blocks appear in the key unquoted —
// `xen_steals_total{kind=local}` — so keys need no JSON escaping and stay
// grep-friendly.
func (s *Sampler) WriteJSONL(w io.Writer) error {
	if !s.started {
		return fmt.Errorf("telemetry: WriteJSONL before Start")
	}
	buf := make([]byte, 0, 64*len(s.cells))
	for logical := 0; logical < s.Rows(); logical++ {
		row := s.row(logical)
		buf = buf[:0]
		buf = append(buf, `{"t":`...)
		buf = strconv.AppendFloat(buf, s.times[row].Seconds(), 'g', -1, 64)
		base := row * len(s.cells)
		for i := range s.cells {
			buf = append(buf, ',', '"')
			buf = appendJSONKey(buf, s.cells[i].id)
			buf = append(buf, '"', ':')
			buf = strconv.AppendFloat(buf, s.data[base+i], 'g', -1, 64)
		}
		buf = append(buf, '}', '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// appendJSONKey appends the series id with its label values unquoted
// (`name{k=v}`), which keeps the key free of characters needing JSON
// escapes (ids are built from metric names and label literals only).
func appendJSONKey(buf []byte, id string) []byte {
	for i := 0; i < len(id); i++ {
		if id[i] != '"' {
			buf = append(buf, id[i])
		}
	}
	return buf
}
