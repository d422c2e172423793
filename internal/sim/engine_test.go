package sim

import (
	"slices"
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(30*Millisecond, "c", func(*Engine) { order = append(order, "c") })
	e.Schedule(10*Millisecond, "a", func(*Engine) { order = append(order, "a") })
	e.Schedule(20*Millisecond, "b", func(*Engine) { order = append(order, "b") })
	e.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != Time(30*Millisecond) {
		t.Fatalf("clock = %v, want 30ms", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Millisecond, "tie", func(*Engine) { order = append(order, i) })
	}
	e.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("simultaneous events fired out of FIFO order: %v", order)
		}
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10*Millisecond, "advance", func(*Engine) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.ScheduleAt(Time(Millisecond), "past", func(*Engine) {})
}

func TestNegativeDelayClampedToNow(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(-5, "neg", func(*Engine) { fired = true })
	e.Run()
	if !fired {
		t.Fatal("event with negative delay never fired")
	}
	if e.Now() != 0 {
		t.Fatalf("clock = %v, want 0", e.Now())
	}
}

func TestEventsScheduleMoreEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var chain func(*Engine)
	chain = func(en *Engine) {
		count++
		if count < 5 {
			en.Schedule(Millisecond, "chain", chain)
		}
	}
	e.Schedule(Millisecond, "chain", chain)
	e.Run()
	if count != 5 {
		t.Fatalf("chain fired %d times, want 5", count)
	}
	if e.Now() != Time(5*Millisecond) {
		t.Fatalf("clock = %v, want 5ms", e.Now())
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Every(10*Millisecond, 10*Millisecond, "tick", func(*Engine) { fired++ })
	e.RunUntil(Time(55 * Millisecond))
	if fired != 5 {
		t.Fatalf("ticker fired %d times in 55ms, want 5", fired)
	}
	if e.Now() != Time(55*Millisecond) {
		t.Fatalf("clock = %v, want exactly the horizon", e.Now())
	}
	// Continuing past the first horizon resumes the ticker.
	e.RunUntil(Time(105 * Millisecond))
	if fired != 10 {
		t.Fatalf("ticker fired %d times in 105ms, want 10", fired)
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	var tk *Ticker
	tk = e.Every(Millisecond, Millisecond, "tick", func(*Engine) {
		fired++
		if fired == 3 {
			tk.Stop()
		}
	})
	e.RunUntil(Time(100 * Millisecond))
	if fired != 3 {
		t.Fatalf("ticker fired %d times after Stop at 3, want 3", fired)
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Every(Millisecond, Millisecond, "tick", func(en *Engine) {
		fired++
		if fired == 7 {
			en.Stop()
		}
	})
	e.Run()
	if fired != 7 {
		t.Fatalf("fired = %d, want 7", fired)
	}
	// Run again: resumes from where it stopped.
	e.RunUntil(Time(10 * Millisecond))
	if fired != 10 {
		t.Fatalf("fired = %d after resume, want 10", fired)
	}
}

func TestFiredCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 4; i++ {
		e.Schedule(Duration(i)*Millisecond, "n", func(*Engine) {})
	}
	if n := e.Run(); n != 4 {
		t.Fatalf("Run returned %d, want 4", n)
	}
	if e.Fired() != 4 {
		t.Fatalf("Fired() = %d, want 4", e.Fired())
	}
}

func TestPending(t *testing.T) {
	e := NewEngine()
	e.Schedule(Millisecond, "a", func(*Engine) {})
	e.Schedule(2*Millisecond, "b", func(*Engine) {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", e.Pending())
	}
}

func TestNextAtEmpty(t *testing.T) {
	e := NewEngine()
	if at, ok := e.NextAt(); ok {
		t.Fatalf("NextAt on an empty queue = %v, true", at)
	}
	e.Schedule(Millisecond, "a", func(*Engine) {})
	e.Run()
	if at, ok := e.NextAt(); ok {
		t.Fatalf("NextAt after the queue drained = %v, true", at)
	}
}

// TestNextAtPinnedTimer checks a pending timer, and that re-arming or
// stopping it moves the answer.
func TestNextAtPinnedTimer(t *testing.T) {
	e := NewEngine()
	tm := e.NewTimer("t", func(*Engine) {})
	e.Schedule(5*Millisecond, "later", func(*Engine) {})
	tm.Arm(2 * Millisecond)
	if at, ok := e.NextAt(); !ok || at != Time(2*Millisecond) {
		t.Fatalf("NextAt with an armed timer = %v, %v; want 2ms, true", at, ok)
	}
	tm.Arm(7 * Millisecond)
	if at, ok := e.NextAt(); !ok || at != Time(5*Millisecond) {
		t.Fatalf("NextAt after re-arming past the other event = %v, %v; want 5ms, true", at, ok)
	}
	e.RunUntil(Time(6 * Millisecond))
	if at, ok := e.NextAt(); !ok || at != Time(7*Millisecond) {
		t.Fatalf("NextAt with only the timer left = %v, %v; want 7ms, true", at, ok)
	}
	tm.Stop()
	if at, ok := e.NextAt(); ok {
		t.Fatalf("NextAt after stopping the timer = %v, true", at)
	}
}

func TestZeroPeriodTickerPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("Every with zero period did not panic")
		}
	}()
	e.Every(0, 0, "bad", func(*Engine) {})
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(0).Add(1500 * Millisecond)
	if tm.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", tm.Seconds())
	}
	if d := tm.Sub(Time(Second)); d != 500*Millisecond {
		t.Fatalf("Sub = %v, want 500ms", d)
	}
	if got := DurationFromSeconds(0.25); got != 250*Millisecond {
		t.Fatalf("DurationFromSeconds(0.25) = %v", got)
	}
	if s := (1500 * Millisecond).String(); s != "1.500s" {
		t.Fatalf("Duration.String = %q", s)
	}
	if s := (250 * Microsecond).String(); s != "250µs" {
		t.Fatalf("Duration.String = %q", s)
	}
}

// TestRunInsideCallback checks a run started by a callback of the same
// engine: it fires what is due without firing the calling event again,
// and the outer run carries on after it.
func TestRunInsideCallback(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(10, "outer", func(e *Engine) {
		order = append(order, "outer")
		e.RunUntil(e.Now().Add(5))
	})
	e.Schedule(12, "inner", func(*Engine) { order = append(order, "inner") })
	e.Schedule(20, "after", func(*Engine) { order = append(order, "after") })
	e.Run()
	if want := []string{"outer", "inner", "after"}; !slices.Equal(order, want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	if e.Fired() != 3 || e.Pending() != 0 {
		t.Fatalf("Fired = %d, Pending = %d; want 3, 0", e.Fired(), e.Pending())
	}
}
