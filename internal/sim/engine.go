package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"
)

// event is a scheduled callback. The callback runs at the event's firing
// time with the engine passed in so it can schedule follow-up events.
//
// Events queued by Schedule/ScheduleAt are owned by the engine: once an
// event has fired, the engine recycles it through an internal free list.
// Callers that need a deadline they can re-arm or stop at any time use a
// Timer, which owns its event for its whole lifetime and is never pooled.
// See DESIGN.md §9 "Hot-path memory discipline".
type event struct {
	key
	index  int // heap index, -1 when not queued
	fire   func(e *Engine)
	label  string // names a Timer event in a past-time panic
	pinned bool   // owned by a Timer; never returned to the pool
}

// key is a firing's place in the engine's order: earlier time first, FIFO
// (lower seq) among simultaneous firings. Every arming takes a new seq,
// so this is a total order, and any correct priority queue pops firings in
// exactly the same sequence. Events and tickers share it.
type key struct {
	at  Time
	seq uint64
}

// before reports whether k fires before o.
func (k *key) before(o *key) bool {
	return k.at < o.at || (k.at == o.at && k.seq < o.seq)
}

// Engine is a single-threaded discrete-event simulator.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	fired   uint64
	stopped bool
	horizon Time // 0 means unbounded

	// queue is a binary min-heap of pending events in key order; each
	// queued event's index field holds its slot. While vacant is set,
	// slot 0 is the hole the firing event left: the next push takes it
	// with one sift down, and settle fills it with the last event when
	// anything else needs a whole heap.
	queue  []*event
	vacant bool

	// tickers are the live tickers, which are never in queue: run fires
	// next, the earliest armed ticker by (at, seq), when it precedes the
	// heap root. armed counts the armed tickers; a firing ticker is not
	// armed until its callback returns.
	tickers []*Ticker
	next    *Ticker
	armed   int

	// free is the event pool: fired events are recycled here, so a
	// steady-state simulation allocates no events. LIFO reuse keeps the
	// pool cache-hot and, because the engine is single-threaded, fully
	// deterministic.
	free []*event
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events waiting to fire: queued events and
// timers plus armed tickers. The event or ticker that is firing is not
// counted.
func (e *Engine) Pending() int {
	n := len(e.queue) + e.armed
	if e.vacant {
		n--
	}
	return n
}

// NextAt returns the firing time of the earliest pending event or ticker,
// and false when nothing is pending.
func (e *Engine) NextAt() (Time, bool) {
	e.settle()
	t := e.next
	if len(e.queue) == 0 {
		if t == nil {
			return 0, false
		}
		return t.at, true
	}
	if at := e.queue[0].at; t == nil || at < t.at {
		return at, true
	}
	return t.at, true
}

// Fired returns the number of events and ticks executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// PoolSize returns the number of recycled events currently in the free
// list (exposed for the pooling tests).
func (e *Engine) PoolSize() int { return len(e.free) }

// alloc takes an event from the free list, or makes a new one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{} //vet:alloc pool warmup: only when the free list is empty; steady state recycles released events
}

// release recycles a fired event. The callback reference is dropped
// immediately so a recycled event can never re-fire its old callback.
// Pinned events belong to a Timer and are never pooled.
func (e *Engine) release(ev *event) {
	if ev.pinned {
		return
	}
	ev.fire = nil
	e.free = append(e.free, ev) //vet:alloc free list grows to peak in-flight events during warmup, then flattens
}

// ErrPastEvent is returned by ScheduleAt when the requested time precedes
// the current clock.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// ScheduleAt queues fn to run at absolute time at. It panics if at is in
// the past: scheduling into the past is always a programming error in a
// discrete-event model and silently clamping would hide causality bugs.
func (e *Engine) ScheduleAt(at Time, label string, fn func(*Engine)) {
	if at < e.now {
		panic(fmt.Errorf("%w: now=%v at=%v label=%q", ErrPastEvent, e.now, at, label))
	}
	//vet:alloc the inlined alloc's pool warmup: only when the free list is empty; steady state recycles released events
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	ev.fire = fn
	e.seq++
	e.push(ev)
}

// Schedule queues fn to run after delay d (d < 0 is clamped to 0).
func (e *Engine) Schedule(d Duration, label string, fn func(*Engine)) {
	if d < 0 {
		d = 0
	}
	e.ScheduleAt(e.now.Add(d), label, fn)
}

// armPinnedAt queues a caller-owned (pinned) event at time at, taking one
// sequence number. Pinned events are re-armed in place rather than
// pooled: a still-pending event is re-keyed and sifted from its current
// slot, so it can never occupy two slots (and so never double-fire).
func (e *Engine) armPinnedAt(ev *event, at Time) {
	if at < e.now {
		panic(fmt.Errorf("%w: now=%v at=%v label=%q", ErrPastEvent, e.now, at, ev.label))
	}
	if ev.index >= 0 {
		// Fill a vacated root before the re-key: settle's sift reads
		// the keys of queued events, ev's among them.
		e.settle()
	}
	ev.at = at
	ev.seq = e.seq
	e.seq++
	if ev.index < 0 {
		e.push(ev)
	} else {
		e.fix(ev, ev.index)
	}
}

// unqueue removes a pending event from the queue. Reports whether the
// event was queued. It takes no sequence number.
func (e *Engine) unqueue(ev *event) bool {
	if ev.index < 0 {
		return false
	}
	e.settle()
	i := ev.index
	n := len(e.queue) - 1
	last := e.queue[n]
	e.queue[n] = nil
	e.queue = e.queue[:n]
	ev.index = -1
	if i < n {
		e.fix(last, i)
	}
	return true
}

// push queues ev. It takes the root a firing event vacated, sifting
// down from there, or else appends ev and sifts it up.
func (e *Engine) push(ev *event) {
	if e.vacant {
		e.vacant = false
		e.siftDown(ev, 0)
		return
	}
	e.queue = append(e.queue, ev) //vet:alloc queue grows to peak pending events during warmup, then flattens
	e.siftUp(ev, len(e.queue)-1)
}

// settle fills a vacated root with the last queued event, which finishes
// the pop the firing event began.
func (e *Engine) settle() {
	if !e.vacant {
		return
	}
	e.vacant = false
	n := len(e.queue) - 1
	last := e.queue[n]
	e.queue[n] = nil
	e.queue = e.queue[:n]
	if n > 0 {
		e.siftDown(last, 0)
	}
}

// fix places ev in the hole at slot i and restores heap order, sifting
// up if ev precedes i's parent and down otherwise.
func (e *Engine) fix(ev *event, i int) {
	if i > 0 && ev.before(&e.queue[(i-1)/2].key) {
		e.siftUp(ev, i)
	} else {
		e.siftDown(ev, i)
	}
}

// siftUp moves ev from the hole at slot i toward the root: each parent
// that ev precedes drops into the hole, and ev is written once where the
// climb stops. Every moved event's index is written exactly once.
func (e *Engine) siftUp(ev *event, i int) {
	q := e.queue
	for i > 0 {
		p := (i - 1) / 2
		parent := q[p]
		if !ev.before(&parent.key) {
			break
		}
		q[i] = parent
		parent.index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// siftDown moves ev from the hole at slot i toward the leaves: the
// earlier child rises into the hole while it precedes ev.
func (e *Engine) siftDown(ev *event, i int) {
	q := e.queue
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c].key) {
			c = r
		}
		child := q[c]
		if !child.before(&ev.key) {
			break
		}
		q[i] = child
		child.index = i
		i = c
	}
	q[i] = ev
	ev.index = i
}

// Timer is a reusable one-shot event with a callback bound at construction
// time. Arming, firing, and stopping a Timer never allocates: the Timer
// owns one pinned event that every Arm queues, or re-keys in place while it
// is still pending. Use it for recurring hot-path deadlines (quantum ends, VCPU
// wakeups) where Schedule's per-call closure would churn the GC.
type Timer struct {
	engine *Engine
	ev     event
}

// NewTimer returns an unarmed timer that runs fn each time it fires.
func (e *Engine) NewTimer(label string, fn func(*Engine)) *Timer {
	t := &Timer{engine: e}
	t.ev.pinned = true
	t.ev.index = -1
	t.ev.label = label
	t.ev.fire = fn
	return t
}

// Arm schedules the timer to fire after delay d (d < 0 is clamped to 0).
// An already-pending timer is re-armed at the new deadline.
func (t *Timer) Arm(d Duration) {
	if d < 0 {
		d = 0
	}
	t.ArmAt(t.engine.now.Add(d))
}

// ArmAt schedules the timer to fire at absolute time at, replacing any
// pending arming: a pending timer is re-keyed in place.
func (t *Timer) ArmAt(at Time) {
	t.engine.armPinnedAt(&t.ev, at)
}

// Stop removes a pending firing; it reports whether the timer was armed.
// A stopped Timer can be re-armed immediately.
func (t *Timer) Stop() bool {
	return t.engine.unqueue(&t.ev)
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.ev.index >= 0 }

// Every schedules fn to run now+first and then every period thereafter,
// until the returned ticker is stopped or the engine halts. period must be
// positive.
func (e *Engine) Every(first, period Duration, label string, fn func(*Engine)) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker period %v (label %q)", period, label))
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	e.tickers = append(e.tickers, t)
	e.armTicker(t, e.now.Add(max(first, 0)))
	return t
}

// Ticker repeatedly fires a callback at a fixed period. It is keyed by
// its own (at, seq) outside the event heap and re-armed after each
// firing, taking one sequence number, so a running ticker performs zero
// allocations.
type Ticker struct {
	key
	engine  *Engine
	period  Duration
	fn      func(*Engine)
	armed   bool
	stopped bool
}

// armTicker keys t at time at with the next sequence number.
func (e *Engine) armTicker(t *Ticker, at Time) {
	t.at = at
	t.seq = e.seq
	e.seq++
	t.armed = true
	e.armed++
	if e.next == nil || t.before(&e.next.key) {
		e.next = t
	}
}

// disarmTicker takes t out of the armed set.
func (e *Engine) disarmTicker(t *Ticker) {
	if !t.armed {
		return
	}
	t.armed = false
	e.armed--
	if e.next != t {
		return
	}
	e.next = nil
	for _, u := range e.tickers {
		if u.armed && (e.next == nil || u.before(&e.next.key)) {
			e.next = u
		}
	}
}

// fireTicker runs e.next: t is disarmed while its callback runs and
// re-armed one period on afterwards unless the callback stopped it.
func (e *Engine) fireTicker(t *Ticker) {
	e.disarmTicker(t)
	e.now = t.at
	e.fired++
	t.fn(e)
	if !t.stopped {
		e.armTicker(t, e.now.Add(t.period))
	}
}

// Stop prevents all future firings of the ticker.
func (t *Ticker) Stop() {
	t.stopped = true
	e := t.engine
	e.disarmTicker(t)
	e.tickers = slices.DeleteFunc(e.tickers, func(u *Ticker) bool { return u == t })
}

// Stop halts the run loop after the currently-firing event returns.
func (e *Engine) Stop() { e.stopped = true }

// SetHorizon makes Run stop once the clock would pass t. A zero horizon
// means no limit.
func (e *Engine) SetHorizon(t Time) { e.horizon = t }

// interruptStride is how many events RunContext executes between context
// polls: rare enough that the hot loop is unaffected, frequent enough that
// cancellation lands within microseconds of wall time.
const interruptStride = 4096

// Run executes events in time order until the queue is empty, Stop is
// called, or the horizon is reached. It returns the number of events fired
// during this call.
func (e *Engine) Run() uint64 {
	n, _ := e.run(nil)
	return n
}

// RunContext is Run with cooperative cancellation: every interruptStride
// events the context is polled, and a cancelled context halts the run (as
// if Stop had been called) and returns the context's error. A nil error
// means the run ended for one of Run's normal reasons.
func (e *Engine) RunContext(ctx context.Context) (uint64, error) {
	return e.run(ctx)
}

// run is the event loop proper: the innermost steady-state code in the
// repo.
//
//vprobe:hotpath
func (e *Engine) run(ctx context.Context) (uint64, error) {
	start := e.fired
	e.stopped = false
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			e.stopped = true
			return 0, err
		}
	}
	// A run started from inside a callback must not take that
	// callback's vacated root for an event.
	e.settle()
	for !e.stopped {
		if ctx != nil && e.fired%interruptStride == 0 {
			if err := ctx.Err(); err != nil {
				e.stopped = true
				return e.fired - start, err
			}
		}
		t := e.next
		if len(e.queue) == 0 || (t != nil && t.before(&e.queue[0].key)) {
			if t == nil {
				break
			}
			if e.horizon > 0 && t.at > e.horizon {
				e.now = e.horizon
				break
			}
			e.fireTicker(t)
			continue
		}
		ev := e.queue[0]
		if e.horizon > 0 && ev.at > e.horizon {
			e.now = e.horizon
			break
		}
		// Pop by vacating the root: a push from the callback takes it
		// (one sift instead of two), and settle fills it otherwise.
		ev.index = -1
		e.vacant = true
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: time went backwards: now=%v event=%v", e.now, ev.at))
		}
		e.now = ev.at
		e.fired++
		fn := ev.fire
		fn(e)
		e.release(ev)
		e.settle()
	}
	return e.fired - start, nil
}

// RunUntil executes events with the clock bounded by t. If the event
// supply ran dry before t (without an explicit Stop), the clock advances to
// exactly t; after a Stop the clock stays where the stop happened.
func (e *Engine) RunUntil(t Time) uint64 {
	n, _ := e.runUntil(nil, t)
	return n
}

// RunUntilContext is RunUntil with the cancellation semantics of
// RunContext. On cancellation the clock stays wherever the run was
// interrupted.
func (e *Engine) RunUntilContext(ctx context.Context, t Time) (uint64, error) {
	return e.runUntil(ctx, t)
}

// runUntil is run bounded by a horizon override.
//
//vprobe:hotpath
func (e *Engine) runUntil(ctx context.Context, t Time) (uint64, error) {
	prev := e.horizon
	e.SetHorizon(t)
	n, err := e.run(ctx)
	if e.now < t && !e.stopped {
		e.now = t
	}
	e.horizon = prev
	return n, err
}
