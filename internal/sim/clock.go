// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock in integer microseconds; an event queue that fires
// events, timers and tickers in one (time, seq) order, FIFO among
// simultaneous firings, with events and timers in a binary heap and
// tickers keyed beside it; a seedable SplitMix64 random number generator;
// and small summary-statistics helpers.
//
// The engine is single-threaded by design. Determinism is a hard requirement
// for the vProbe reproduction: two runs with the same seed and configuration
// must produce bit-identical schedules, counters, and metrics.
package sim

import "fmt"

// Time is a point in virtual time, in microseconds since simulation start.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Common durations, expressed in the engine's microsecond base unit.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from earlier to t.
func (t Time) Sub(earlier Time) Duration { return Duration(t - earlier) }

// Seconds converts the time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds converts the duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Millis converts the duration to floating-point milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// Micros returns the duration as an int64 count of microseconds.
func (d Duration) Micros() int64 { return int64(d) }

// DurationFromSeconds converts floating-point seconds to a Duration,
// rounding to the nearest microsecond.
func DurationFromSeconds(s float64) Duration {
	return Duration(s*float64(Second) + 0.5)
}

// String renders the time as seconds with microsecond precision.
func (t Time) String() string {
	return fmt.Sprintf("%.6fs", t.Seconds())
}

// String renders the duration in the most natural unit.
func (d Duration) String() string {
	switch {
	case d >= Second || d <= -Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond || d <= -Millisecond:
		return fmt.Sprintf("%.3fms", d.Millis())
	default:
		return fmt.Sprintf("%dµs", int64(d))
	}
}
