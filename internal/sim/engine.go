package sim

import (
	"context"
	"errors"
	"fmt"
)

// Event is a scheduled callback. The callback runs at the event's firing
// time with the engine passed in so it can schedule follow-up events.
//
// Events returned by Schedule/ScheduleAt are owned by the engine: once an
// event has fired (or a cancelled event has been discarded), the engine
// recycles it through an internal free list and the pointer must not be
// used again. Cancel is therefore only meaningful while the event is
// pending. Callers that need an event they can safely re-arm or cancel at
// any time should use a Timer, which owns its event for its whole lifetime
// and is never pooled. See DESIGN.md §9 "Hot-path memory discipline".
type Event struct {
	at     Time
	seq    uint64 // tie-breaker: FIFO among simultaneous events
	index  int    // heap index, -1 when not queued
	fire   func(e *Engine)
	label  string
	cancel bool
	pinned bool // owned by a Timer/Ticker; never returned to the pool
}

// At reports the virtual time the event fires at.
func (ev *Event) At() Time { return ev.at }

// Label reports the human-readable label given at scheduling time.
func (ev *Event) Label() string { return ev.label }

// Cancel marks the event so it will be skipped when it reaches the head of
// the queue. Cancelling an already-fired event is a no-op — but note that
// a fired event may have been recycled for an unrelated later Schedule
// call, so Cancel must only be called while the event is known pending.
func (ev *Event) Cancel() { ev.cancel = true }

// Cancelled reports whether Cancel was called on the event.
func (ev *Event) Cancelled() bool { return ev.cancel }

// Engine is a single-threaded discrete-event simulator.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	fired   uint64
	stopped bool
	horizon Time // 0 means unbounded

	// queue is a binary min-heap of pending events ordered by before, the
	// (at, seq) order; each queued event's index field holds its slot.
	queue []*Event

	// free is the event pool: fired and discarded-after-cancel events are
	// recycled here, so a steady-state simulation allocates no events.
	// LIFO reuse keeps the pool cache-hot and, because the engine is
	// single-threaded, fully deterministic.
	free []*Event
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events waiting in the queue, including
// cancelled events that have not yet been discarded.
func (e *Engine) Pending() int { return len(e.queue) }

// NextAt returns the firing time of the earliest queued event, and false
// when the queue is empty. A cancelled event still counts until the run
// loop discards it, so the answer may be early but is never late: no
// event fires before it.
func (e *Engine) NextAt() (Time, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// PoolSize returns the number of recycled events currently in the free
// list (exposed for the pooling tests).
func (e *Engine) PoolSize() int { return len(e.free) }

// alloc takes an event from the free list, or makes a new one.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{} //vet:alloc pool warmup: only when the free list is empty; steady state recycles released events
}

// release recycles a popped event. The callback reference is dropped
// immediately so a recycled event can never re-fire its old callback;
// the cancel flag is left as-is (so Cancelled() stays observable on a
// just-discarded event) and reset when the event is handed out again.
// Pinned events belong to a Timer or Ticker and are never pooled.
func (e *Engine) release(ev *Event) {
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
func (e *Engine) ScheduleAt(at Time, label string, fn func(*Engine)) *Event {
	if at < e.now {
		panic(fmt.Errorf("%w: now=%v at=%v label=%q", ErrPastEvent, e.now, at, label))
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	ev.fire = fn
	ev.label = label
	ev.cancel = false
	e.seq++
	e.push(ev)
	return ev
}

// Schedule queues fn to run after delay d (d < 0 is clamped to 0).
func (e *Engine) Schedule(d Duration, label string, fn func(*Engine)) *Event {
	if d < 0 {
		d = 0
	}
	return e.ScheduleAt(e.now.Add(d), label, fn)
}

// armPinnedAt queues a caller-owned (pinned) event at time at, taking one
// sequence number. Pinned events are re-armed in place rather than
// pooled: a still-pending event is re-keyed and sifted from its current
// slot, so it can never occupy two slots (and so never double-fire).
func (e *Engine) armPinnedAt(ev *Event, at Time) {
	if at < e.now {
		panic(fmt.Errorf("%w: now=%v at=%v label=%q", ErrPastEvent, e.now, at, ev.label))
	}
	ev.at = at
	ev.seq = e.seq
	ev.cancel = false
	e.seq++
	if ev.index < 0 {
		e.push(ev)
	} else {
		e.fix(ev, ev.index)
	}
}

// unqueue removes a pending event from the queue immediately (as opposed
// to Cancel's lazy skip-at-pop). Reports whether the event was queued.
// It takes no sequence number.
func (e *Engine) unqueue(ev *Event) bool {
	i := ev.index
	if i < 0 {
		return false
	}
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

// before is the queue order: earlier time first, FIFO (lower seq) among
// simultaneous events. seq is unique, so this is a total order and any
// correct priority queue pops events in exactly the same sequence.
func before(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push appends ev to the queue and sifts it up to its slot.
func (e *Engine) push(ev *Event) {
	e.queue = append(e.queue, ev) //vet:alloc queue grows to peak pending events during warmup, then flattens
	e.siftUp(ev, len(e.queue)-1)
}

// fix places ev in the hole at slot i and restores heap order, sifting
// up if ev precedes i's parent and down otherwise.
func (e *Engine) fix(ev *Event, i int) {
	if i > 0 && before(ev, e.queue[(i-1)/2]) {
		e.siftUp(ev, i)
	} else {
		e.siftDown(ev, i)
	}
}

// siftUp moves ev from the hole at slot i toward the root: each parent
// that ev precedes drops into the hole, and ev is written once where the
// climb stops. Every moved event's index is written exactly once.
func (e *Engine) siftUp(ev *Event, i int) {
	q := e.queue
	for i > 0 {
		p := (i - 1) / 2
		parent := q[p]
		if !before(ev, parent) {
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
func (e *Engine) siftDown(ev *Event, i int) {
	q := e.queue
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(q[r], q[c]) {
			c = r
		}
		child := q[c]
		if !before(child, ev) {
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
	ev     Event
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
// Unlike Event.Cancel, a stopped Timer can be re-armed immediately.
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
	t.ev.pinned = true
	t.ev.index = -1
	t.ev.label = label
	t.ev.fire = t.tick // one closure for the ticker's whole lifetime
	if first < 0 {
		first = 0
	}
	e.armPinnedAt(&t.ev, e.now.Add(first))
	return t
}

// Ticker repeatedly fires a callback at a fixed period. It owns one pinned
// event that is re-armed after each firing, so a running ticker performs
// zero allocations.
type Ticker struct {
	engine  *Engine
	period  Duration
	fn      func(*Engine)
	ev      Event
	stopped bool
}

func (t *Ticker) tick(e *Engine) {
	if t.stopped {
		return
	}
	t.fn(e)
	if !t.stopped {
		e.armPinnedAt(&t.ev, e.now.Add(t.period))
	}
}

// Stop prevents all future firings of the ticker.
func (t *Ticker) Stop() {
	t.stopped = true
	t.engine.unqueue(&t.ev)
}

// Period returns the ticker period.
func (t *Ticker) Period() Duration { return t.period }

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
	for len(e.queue) > 0 && !e.stopped {
		if ctx != nil && e.fired%interruptStride == 0 {
			if err := ctx.Err(); err != nil {
				e.stopped = true
				return e.fired - start, err
			}
		}
		ev := e.queue[0]
		if e.horizon > 0 && ev.at > e.horizon {
			e.now = e.horizon
			break
		}
		e.unqueue(ev)
		if ev.cancel {
			e.release(ev)
			continue
		}
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: time went backwards: now=%v event=%v", e.now, ev.at))
		}
		e.now = ev.at
		e.fired++
		fn := ev.fire
		fn(e)
		e.release(ev)
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
