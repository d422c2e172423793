package sim

import "testing"

// BenchmarkEngineChurn measures the event engine alone at the paper
// scenario's steady-state shape: about 40 pending events, namely 8 quantum
// timers, 24 wake timers and 5 pooled kicks in the heap, and 3 tickers
// (tick, accounting, sampling period) keyed beside it. Each op fires one
// event or tick; an event's callback re-arms it, mostly into the root it
// vacated, and one wake in four also re-keys a still-pending quantum
// timer in place, as a BOOST preemption does.
func BenchmarkEngineChurn(b *testing.B) {
	e := NewEngine()
	rng := NewRNG(1)
	var stopAt uint64
	done := func(e *Engine) {
		if e.Fired() == stopAt {
			e.Stop()
		}
	}

	var quanta [8]*Timer
	for i := range quanta {
		var t *Timer
		t = e.NewTimer("quantum", func(e *Engine) {
			t.Arm(30*Millisecond + Duration(rng.Intn(1000))*Microsecond)
			done(e)
		})
		t.Arm(Duration(rng.Intn(30)) * Millisecond)
		quanta[i] = t
	}
	for i := 0; i < 24; i++ {
		var t *Timer
		t = e.NewTimer("wake", func(e *Engine) {
			t.Arm(Duration(1+rng.Intn(20)) * Millisecond)
			if rng.Intn(4) == 0 {
				quanta[rng.Intn(len(quanta))].Arm(Duration(rng.Intn(1000)) * Microsecond)
			}
			done(e)
		})
		t.Arm(Duration(rng.Intn(20)) * Millisecond)
	}
	e.Every(10*Millisecond, 10*Millisecond, "tick", done)
	e.Every(30*Millisecond, 30*Millisecond, "account", done)
	e.Every(Second, Second, "period", done)
	var kick func(*Engine)
	kick = func(e *Engine) {
		e.Schedule(Duration(rng.Intn(5000))*Microsecond, "kick", kick)
		done(e)
	}
	for i := 0; i < 5; i++ {
		e.Schedule(Duration(rng.Intn(5000))*Microsecond, "kick", kick)
	}

	// Warm up: the queue and the pool reach their steady-state capacity.
	stopAt = 10000
	e.Run()

	b.ReportAllocs()
	b.ResetTimer()
	stopAt = e.Fired() + uint64(b.N)
	e.Run()
}
