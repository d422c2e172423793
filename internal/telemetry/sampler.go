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

// Sampler snapshots a Registry's series into an in-memory time-series
// ring at a fixed virtual-time period. Hooks registered with OnSample run
// (in registration order) immediately before each snapshot, so gauges
// derived from model state are fresh in every row. Each row holds one
// cell per counter and gauge and two per histogram (its _sum and _count;
// the per-bucket breakdown is exported through the Prometheus endpoint
// only, keeping rows compact).
type Sampler struct {
	reg     *Registry
	period  sim.Duration
	hooks   []func()
	capRows int
	times   []sim.Time
	data    []float64 // row-major: capRows rows of reg's cell count columns
	rows    int       // total snapshots taken (may exceed capRows)
	started bool
	sealed  bool
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
	if s.capRows == 0 {
		s.capRows = preallocRows
	}
	s.times = make([]sim.Time, s.capRows)
	s.data = make([]float64, s.capRows*s.reg.at.cells)
	e.Every(s.period, s.period, "telemetry-sample", func(e *sim.Engine) { s.snapshot(e.Now()) })
}

// snapshot runs the hooks and writes one row into the ring, overwriting
// the oldest row once capacity is exceeded. The whole path is
// allocation-free: the backing arrays are sized at Start and only ever
// written in place. A sealed sampler takes no more rows.
//
//vprobe:hotpath
func (s *Sampler) snapshot(now sim.Time) {
	if s.sealed {
		return
	}
	for _, fn := range s.hooks {
		fn()
	}
	slot := s.rows % s.capRows
	s.rows++
	s.times[slot] = now
	r := s.reg
	i := slot * r.at.cells
	for _, n := range r.at.seq {
		v := r.vals[n.chunk]
		if n.d.kind == KindHistogram {
			nb := n.off + len(n.d.bounds)
			s.data[i], s.data[i+1] = v[nb+1], v[nb+2] // sum, count
			i += 2
		} else {
			s.data[i] = v[n.off]
			i++
		}
	}
}

// Seal ends collection once the run has returned: it drops the sample
// hooks, which close over the model they read, and cuts the ring to the
// rows it holds, oldest first. What is left is the run's numbers, which
// both exports render as before. Sealing twice is a no-op.
func (s *Sampler) Seal() {
	if s.sealed {
		return
	}
	s.sealed = true
	s.hooks = nil
	s.reg.seal()
	n, cells := s.Rows(), s.reg.at.cells
	if !s.started || (n == s.capRows && s.rows == n) {
		return
	}
	times := make([]sim.Time, n)
	data := make([]float64, n*cells)
	for l := 0; l < n; l++ {
		row := s.row(l)
		times[l] = s.times[row]
		copy(data[l*cells:(l+1)*cells], s.data[row*cells:(row+1)*cells])
	}
	s.times, s.data, s.rows, s.capRows = times, data, n, n
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
	cells := s.reg.at.cells
	buf := make([]byte, 0, 64*cells)
	for logical := 0; logical < s.Rows(); logical++ {
		row := s.row(logical)
		buf = buf[:0]
		buf = append(buf, `{"t":`...)
		buf = strconv.AppendFloat(buf, s.times[row].Seconds(), 'g', -1, 64)
		vals := s.data[row*cells : (row+1)*cells]
		i := 0
		for _, n := range s.reg.at.seq {
			for _, id := range n.d.cellIDs {
				buf = append(buf, ',', '"')
				buf = append(buf, id...)
				buf = append(buf, '"', ':')
				buf = strconv.AppendFloat(buf, vals[i], 'g', -1, 64)
				i++
			}
		}
		buf = append(buf, '}', '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
