package sim

import (
	"fmt"
	"slices"
	"testing"
)

// The differential ordering test drives the engine and a naive reference
// queue through the same seeded script and requires identical traces:
// every fire (id and time) with Pending() and NextAt() as the callback
// sees them, and after every step the clock, Pending(), PoolSize() and
// the fired count. The reference keeps pending events, tickers included,
// in a plain slice sorted by (at, seq) before every pop, so it shares no
// heap or ticker logic with the engine; agreement shows the engine pops
// events and ticks in exactly the (at, seq) order with the same pooling
// and sequence-number accounting.

// queueSide is one implementation under test. Timers and tickers are
// handled by their creation index; pooled events need no handle.
type queueSide interface {
	now() Time
	schedule(d Duration, fn func())
	newTimer(fn func()) int
	armTimer(k int, d Duration)
	stopTimer(k int) bool
	timerPending(k int) bool
	every(first, period Duration, fn func()) int
	stopTicker(k int)
	stop()
	runUntil(t Time)
	pending() int
	nextAt() (Time, bool)
	poolSize() int
	fired() uint64
}

// engineSide adapts *Engine to queueSide.
type engineSide struct {
	e       *Engine
	timers  []*Timer
	tickers []*Ticker
}

func newEngineSide() *engineSide { return &engineSide{e: NewEngine()} }

func (s *engineSide) now() Time { return s.e.Now() }
func (s *engineSide) schedule(d Duration, fn func()) {
	s.e.Schedule(d, "ev", func(*Engine) { fn() })
}
func (s *engineSide) newTimer(fn func()) int {
	s.timers = append(s.timers, s.e.NewTimer("timer", func(*Engine) { fn() }))
	return len(s.timers) - 1
}
func (s *engineSide) armTimer(k int, d Duration) { s.timers[k].Arm(d) }
func (s *engineSide) stopTimer(k int) bool       { return s.timers[k].Stop() }
func (s *engineSide) timerPending(k int) bool    { return s.timers[k].Pending() }
func (s *engineSide) every(first, period Duration, fn func()) int {
	s.tickers = append(s.tickers, s.e.Every(first, period, "ticker", func(*Engine) { fn() }))
	return len(s.tickers) - 1
}
func (s *engineSide) stopTicker(k int) { s.tickers[k].Stop() }
func (s *engineSide) stop()            { s.e.Stop() }
func (s *engineSide) runUntil(t Time)  { s.e.RunUntil(t) }
func (s *engineSide) pending() int     { return s.e.Pending() }
func (s *engineSide) poolSize() int    { return s.e.PoolSize() }
func (s *engineSide) fired() uint64    { return s.e.Fired() }

func (s *engineSide) nextAt() (Time, bool) { return s.e.NextAt() }

// refEvent is one entry of the reference queue.
type refEvent struct {
	at      Time
	seq     uint64
	queued  bool
	pinned  bool
	stopped bool // tickers only
	period  Duration
	fn      func()
}

// refSide is the naive reference: the documented engine semantics written
// out directly over a slice.
type refSide struct {
	clock   Time
	seq     uint64
	nfired  uint64
	halted  bool
	queue   []*refEvent
	pool    int // events the engine would hold in its free list
	timers  []*refEvent
	tickers []*refEvent
}

func newRefSide() *refSide { return &refSide{} }

func (r *refSide) enqueue(ev *refEvent, at Time) {
	ev.at, ev.seq, ev.queued = at, r.seq, true
	r.seq++
	r.queue = append(r.queue, ev)
}

func (r *refSide) dequeue(ev *refEvent) bool {
	if !ev.queued {
		return false
	}
	r.queue = slices.DeleteFunc(r.queue, func(q *refEvent) bool { return q == ev })
	ev.queued = false
	return true
}

func (r *refSide) now() Time { return r.clock }
func (r *refSide) schedule(d Duration, fn func()) {
	if r.pool > 0 {
		r.pool--
	}
	r.enqueue(&refEvent{fn: fn}, r.clock.Add(max(d, 0)))
}
func (r *refSide) newTimer(fn func()) int {
	r.timers = append(r.timers, &refEvent{pinned: true, fn: fn})
	return len(r.timers) - 1
}
func (r *refSide) armTimer(k int, d Duration) {
	ev := r.timers[k]
	r.dequeue(ev)
	r.enqueue(ev, r.clock.Add(max(d, 0)))
}
func (r *refSide) stopTimer(k int) bool    { return r.dequeue(r.timers[k]) }
func (r *refSide) timerPending(k int) bool { return r.timers[k].queued }
func (r *refSide) every(first, period Duration, fn func()) int {
	ev := &refEvent{pinned: true, period: period}
	ev.fn = func() {
		if ev.stopped {
			return
		}
		fn()
		if !ev.stopped {
			r.enqueue(ev, r.clock.Add(ev.period))
		}
	}
	r.tickers = append(r.tickers, ev)
	r.enqueue(ev, r.clock.Add(max(first, 0)))
	return len(r.tickers) - 1
}
func (r *refSide) stopTicker(k int) { r.tickers[k].stopped = true; r.dequeue(r.tickers[k]) }
func (r *refSide) stop()            { r.halted = true }
func (r *refSide) pending() int     { return len(r.queue) }
func (r *refSide) poolSize() int    { return r.pool }
func (r *refSide) fired() uint64    { return r.nfired }

func (r *refSide) sort() {
	slices.SortFunc(r.queue, func(a, b *refEvent) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return int(a.seq) - int(b.seq)
	})
}

func (r *refSide) nextAt() (Time, bool) {
	if len(r.queue) == 0 {
		return 0, false
	}
	r.sort()
	return r.queue[0].at, true
}

func (r *refSide) runUntil(t Time) {
	r.halted = false
	for len(r.queue) > 0 && !r.halted {
		r.sort()
		ev := r.queue[0]
		if ev.at > t {
			break
		}
		r.queue = r.queue[1:]
		ev.queued = false
		r.clock = ev.at
		r.nfired++
		ev.fn()
		if !ev.pinned {
			r.pool++
		}
	}
	if r.clock < t && !r.halted {
		r.clock = t
	}
}

// queueScript drives one side from a seeded RNG and records its trace.
type queueScript struct {
	s       queueSide
	rng     *RNG
	trace   []string
	nextID  int
	timers  int
	tickers []int // indexes of running tickers
	ops     int   // script steps taken, including callback actions
	depths  [2]int
}

// delay draws a delay that often collides with others (0, 1 or 2) so
// equal-time FIFO ordering is exercised as much as distinct times.
func (q *queueScript) delay() Duration {
	if q.rng.Intn(3) == 0 {
		return Duration(q.rng.Intn(3))
	}
	return Duration(q.rng.Intn(400))
}

func (q *queueScript) schedule() {
	id := q.nextID
	q.nextID++
	q.s.schedule(q.delay(), func() {
		q.logFire("ev%d", id)
		q.callbackAction()
	})
}

// logFire records a firing with the queue state its callback sees: the
// firing event or ticker is not pending.
func (q *queueScript) logFire(format string, id int) {
	at, ok := q.s.nextAt()
	q.log("fire "+format+" pending=%d next=%d/%v", id, q.s.pending(), at, ok)
}

// callbackAction lets a firing callback mutate the queue, as the xen
// layer's quantum, wake and accounting callbacks do.
func (q *queueScript) callbackAction() {
	switch n := q.rng.Intn(20); {
	case n < 6:
		q.schedule()
	case n < 10:
		q.act(1)
	case n == 10:
		q.act(2)
	case n == 11 && q.rng.Intn(4) == 0:
		q.log("stop")
		q.s.stop()
	}
}

// act performs script action k on the side.
func (q *queueScript) act(k int) {
	q.ops++
	switch k {
	case 0:
		q.schedule()
	case 1:
		tk, d := q.rng.Intn(q.timers), q.delay()
		q.log("arm t%d pending=%v +%d", tk, q.s.timerPending(tk), d)
		q.s.armTimer(tk, d)
	case 2:
		tk := q.rng.Intn(q.timers)
		q.log("stop t%d -> %v", tk, q.s.stopTimer(tk))
	case 3:
		if len(q.tickers) < 6 {
			n := len(q.tickers)
			var k int
			k = q.s.every(q.delay(), Duration(1+q.rng.Intn(150)), func() {
				q.logFire("k%d", k)
				if q.rng.Intn(50) == 0 {
					q.log("self-stop k%d", k)
					q.s.stopTicker(k)
					q.tickers = slices.DeleteFunc(q.tickers, func(v int) bool { return v == k })
				}
			})
			q.tickers = append(q.tickers, k)
			q.log("every k%d (running %d)", k, n+1)
		}
	case 4:
		if len(q.tickers) > 0 {
			i := q.rng.Intn(len(q.tickers))
			k := q.tickers[i]
			q.tickers = slices.Delete(q.tickers, i, i+1)
			q.log("stop k%d", k)
			q.s.stopTicker(k)
		}
	case 5:
		t := q.s.now().Add(Duration(1 + q.rng.Intn(60)))
		q.log("run until %d", t)
		q.s.runUntil(t)
	}
}

func (q *queueScript) log(format string, args ...any) {
	q.trace = append(q.trace, fmt.Sprintf("@%d ", q.s.now())+fmt.Sprintf(format, args...))
}

// run executes steps top-level actions. The wanted queue depth is redrawn
// every 400 steps from [1, 200]; below it the script favours adding
// events, above it favours running, so depths sweep the whole range.
func (q *queueScript) run(steps int) {
	for i := 0; i < 8; i++ {
		k := q.s.newTimer(func() {
			q.logFire("t%d", i)
			if q.rng.Intn(2) == 0 {
				q.s.armTimer(i, q.delay()) // self re-arm, like a quantum timer
			}
			q.callbackAction()
		})
		q.timers = k + 1
	}
	q.depths = [2]int{1 << 30, 0}
	target := 1
	for step := 0; step < steps; step++ {
		if step%400 == 0 {
			target = 1 + q.rng.Intn(200)
		}
		var k int
		switch n := q.rng.Intn(10); {
		case q.s.pending() < target && n < 6:
			k = 0
		case q.s.pending() >= target && n < 6:
			k = 5
		default:
			k = 1 + q.rng.Intn(4)
		}
		q.act(k)
		p := q.s.pending()
		q.depths[0], q.depths[1] = min(q.depths[0], p), max(q.depths[1], p)
		q.log("step %d pending=%d pool=%d fired=%d", step, p, q.s.poolSize(), q.s.fired())
	}
}

// diffQueues runs the script for seed and steps on the engine and on the
// reference, fails t at the first record where their traces differ, and
// returns the engine's script.
func diffQueues(t *testing.T, seed uint64, steps int) *queueScript {
	t.Helper()
	eng := &queueScript{s: newEngineSide(), rng: NewRNG(seed)}
	ref := &queueScript{s: newRefSide(), rng: NewRNG(seed)}
	eng.run(steps)
	ref.run(steps)
	for i := range min(len(eng.trace), len(ref.trace)) {
		if eng.trace[i] != ref.trace[i] {
			t.Fatalf("seed %d: traces diverge at record %d:\n engine: %s\n    ref: %s\n context: %q",
				seed, i, eng.trace[i], ref.trace[i], eng.trace[max(0, i-5):i])
		}
	}
	if len(eng.trace) != len(ref.trace) {
		t.Fatalf("seed %d: engine trace has %d records, reference %d", seed, len(eng.trace), len(ref.trace))
	}
	return eng
}

func TestQueueMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		eng := diffQueues(t, seed, 12000)
		if eng.ops < 10000 || eng.depths[0] > 1 || eng.depths[1] < 150 {
			t.Fatalf("seed %d: script too weak: %d ops, depths %v (want >=10000 ops over [<=1, >=150])",
				seed, eng.ops, eng.depths)
		}
		t.Logf("seed %d: %d ops, %d trace records, depths %v", seed, eng.ops, len(eng.trace), eng.depths)
	}
}

// TestTickerAndTimerSameInstant pins the (at, seq) order between the
// ticker keys and the heap: a ticker, a timer and pooled events due at
// one instant fire in arming order, and each callback sees the others
// pending. The reference must agree record for record.
func TestTickerAndTimerSameInstant(t *testing.T) {
	script := func(s queueSide) []string {
		var trace []string
		log := func(name string) {
			at, ok := s.nextAt()
			trace = append(trace, fmt.Sprintf("@%d %s pending=%d next=%d/%v", s.now(), name, s.pending(), at, ok))
		}
		tm := s.newTimer(func() { log("timer") })
		s.armTimer(tm, 10) // seq 0: before the ticker's first key
		k := s.every(10, 10, func() { log("ticker") })
		s.schedule(10, func() { log("event") }) // seq 2: after it
		s.runUntil(15)
		// At 20 the ticker's re-arm (seq 3, taken after its first
		// callback) precedes a timer armed later for the same instant.
		s.armTimer(tm, 5)
		s.runUntil(20)
		s.stopTicker(k)
		log("end")
		return trace
	}
	eng, ref := script(newEngineSide()), script(newRefSide())
	want := []string{
		"@10 timer pending=2 next=10/true",
		"@10 ticker pending=1 next=10/true",
		"@10 event pending=1 next=20/true",
		"@20 ticker pending=1 next=20/true",
		"@20 timer pending=1 next=30/true",
		"@20 end pending=0 next=0/false",
	}
	if !slices.Equal(eng, want) {
		t.Fatalf("engine trace:\n%q\nwant:\n%q", eng, want)
	}
	if !slices.Equal(ref, want) {
		t.Fatalf("reference trace:\n%q\nwant:\n%q", ref, want)
	}
}

// FuzzQueueScript runs the differential script at fuzzed seeds and step
// counts (capped at 4000 so one input stays fast).
func FuzzQueueScript(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3} {
		f.Add(seed, uint16(2000))
	}
	f.Fuzz(func(t *testing.T, seed uint64, steps uint16) {
		diffQueues(t, seed, int(steps%4000))
	})
}
