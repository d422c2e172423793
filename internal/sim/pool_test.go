package sim

import "testing"

// TestEventPooling checks the engine recycles fired events: after a burst
// of events fires, the free list holds them, and scheduling again drains
// the pool instead of allocating.
func TestEventPooling(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Schedule(Duration(i), "ev", func(*Engine) {})
	}
	e.Run()
	if got := e.PoolSize(); got != 10 {
		t.Fatalf("PoolSize after firing 10 events = %d, want 10", got)
	}
	e.Schedule(0, "reuse", func(*Engine) {})
	if got := e.PoolSize(); got != 9 {
		t.Fatalf("PoolSize after scheduling from pool = %d, want 9", got)
	}
}

// TestRecycledEventNeverFiresOldCallback is the pool's safety property: an
// event that fired and then got recycled for a new Schedule call must run
// only the new callback, exactly once. Exercised with a seeded randomized
// schedule so recycling happens under realistic interleavings of fire and
// re-schedule.
func TestRecycledEventNeverFiresOldCallback(t *testing.T) {
	e := NewEngine()
	rng := NewRNG(42)

	fires := make(map[int]int) // schedule id -> times fired
	next := 0
	var schedule func()
	schedule = func() {
		id := next
		next++
		e.Schedule(Duration(rng.Intn(50)), "rand", func(*Engine) {
			fires[id]++
			// Half the firings schedule a replacement, keeping the
			// pool churning for the whole run.
			if id < 2000 && rng.Float64() < 0.5 {
				schedule()
			}
		})
	}
	for i := 0; i < 500; i++ {
		schedule()
	}
	e.Run()

	if e.PoolSize() == 0 {
		t.Fatal("randomized run never recycled an event; test is vacuous")
	}
	for id := 0; id < next; id++ {
		if fires[id] != 1 {
			t.Fatalf("schedule %d fired %d times, want 1", id, fires[id])
		}
	}
}

// TestTimerRearm checks a Timer can be stopped and re-armed arbitrarily,
// fires its bound callback at the armed time, and never double-fires.
func TestTimerRearm(t *testing.T) {
	e := NewEngine()
	var fires []Time
	tm := e.NewTimer("t", func(e *Engine) { fires = append(fires, e.Now()) })
	if tm.Pending() {
		t.Fatal("new timer pending")
	}
	tm.Arm(10)
	if !tm.Pending() {
		t.Fatal("armed timer not pending")
	}
	tm.Arm(20) // re-arm replaces the pending deadline
	e.Run()
	if len(fires) != 1 || fires[0] != 20 {
		t.Fatalf("re-armed timer fired at %v, want exactly [20]", fires)
	}
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	tm.Arm(5)
	e.Run()
	if len(fires) != 2 || fires[1] != 25 {
		t.Fatalf("second arming fired at %v, want 25", fires)
	}
}

// TestTimerStop checks Stop removes the pending firing immediately and
// reports whether the timer was armed.
func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.NewTimer("t", func(*Engine) { fired = true })
	tm.Arm(10)
	if !tm.Stop() {
		t.Fatal("Stop on armed timer returned false")
	}
	if tm.Stop() {
		t.Fatal("Stop on idle timer returned true")
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("stopped timer left %d events queued", got)
	}
	// A stopped timer is immediately re-armable.
	tm.Arm(3)
	e.Run()
	if !fired {
		t.Fatal("re-armed timer did not fire")
	}
}

// TestTimerEventsNotPooled checks a Timer's pinned event never enters the
// free list: pooling it would let an unrelated Schedule call hijack an
// event the timer still owns.
func TestTimerEventsNotPooled(t *testing.T) {
	e := NewEngine()
	tm := e.NewTimer("t", func(*Engine) {})
	tm.Arm(1)
	e.Run()
	if got := e.PoolSize(); got != 0 {
		t.Fatalf("fired timer event entered the pool (PoolSize=%d)", got)
	}
}

// TestTimerFIFOWithEvents checks pinned timer events share the engine's
// (time, seq) ordering with pooled events: arming consumes a sequence
// number like Schedule does, so same-time events fire in arming order.
func TestTimerFIFOWithEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(10, "a", func(*Engine) { order = append(order, "a") })
	tm := e.NewTimer("b", func(*Engine) { order = append(order, "b") })
	tm.Arm(10)
	e.Schedule(10, "c", func(*Engine) { order = append(order, "c") })
	e.Run()
	if got := len(order); got != 3 {
		t.Fatalf("fired %d events, want 3", got)
	}
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("same-time firing order %v, want [a b c]", order)
	}
}

// TestScheduleSteadyStateZeroAlloc pins the engine's own hot path: once
// the pool is primed, a schedule→fire cycle allocates nothing.
func TestScheduleSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	fn := func(*Engine) {}
	e.Schedule(1, "prime", fn)
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		e.Schedule(1, "hot", fn)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("schedule→fire cycle allocates %.1f times, want 0", allocs)
	}
}

// TestTimerSteadyStateZeroAlloc pins the Timer hot path: arm→fire and
// arm→stop cycles allocate nothing after construction.
func TestTimerSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	tm := e.NewTimer("t", func(*Engine) {})
	allocs := testing.AllocsPerRun(100, func() {
		tm.Arm(1)
		e.Run()
		tm.Arm(5)
		tm.Stop()
	})
	if allocs != 0 {
		t.Fatalf("timer arm/fire/stop allocates %.1f times, want 0", allocs)
	}
}

// TestTickerSteadyStateZeroAlloc pins the Ticker hot path: a running
// ticker re-keys itself after each firing without allocating.
func TestTickerSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Every(1, 10, "tick", func(*Engine) { n++ })
	e.RunUntil(100) // prime
	var next Time = 100
	allocs := testing.AllocsPerRun(50, func() {
		next = next.Add(100)
		e.RunUntil(next)
	})
	if allocs != 0 {
		t.Fatalf("running ticker allocates %.1f times per 100 ticks, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("ticker never fired")
	}
}
