package xen

import (
	"fmt"
	"testing"

	"vprobe/internal/sim"
)

// detailDurations covers the renderers' boundaries: sub-millisecond
// waits, exactly 1 ms and 1 s, unit edges, every rounding tie the integer
// paths hand to strconv (used µs ending in 50, seconds ending in 500 µs),
// their neighbours, negatives, and values past the exact-float bound.
var detailDurations = []sim.Duration{
	0, 1, 9, 50, 99, 100, 149, 150, 151, 250, 449, 450, 451, 500, 950, 999,
	1000, 1001, 1049, 1050, 1051, 1150, 1250, 1949, 1950, 1951, 9950, 9999,
	10050, 29950, 29951, 30000, 99950, 99999, 100050, 999499, 999500, 999950, 999999,
	1000000, 1000001, 1000499, 1000500, 1000501, 1001500, 1002500, 1999499,
	1999500, 1999501, 1999999, 2000500, 59999500, 123456789, 3600000000,
	exactMicros - 1, exactMicros, exactMicros + 50, 1<<62 + 12345,
	-1, -50, -999, -1000, -1050, -1500, -999500, -1000000, -1000500, -2999500,
}

// TestDetailRenderersMatchFmt pins appendMillis1 and appendDuration to the
// fmt renderings they replace, byte for byte.
func TestDetailRenderersMatchFmt(t *testing.T) {
	for _, d := range detailDurations {
		if got, want := string(appendMillis1([]byte("x"), d)), fmt.Sprintf("x%.1f", d.Millis()); got != want {
			t.Errorf("appendMillis1(%d) = %q, fmt %%.1f gives %q", int64(d), got, want)
		}
		if got, want := string(appendDuration([]byte("x"), d)), "x"+d.String(); got != want {
			t.Errorf("appendDuration(%d) = %q, Duration.String gives %q", int64(d), got, want)
		}
	}
	// Every µs of the ranges quanta and waits fall in, and of the first
	// 200 ms past one second.
	var b []byte
	for _, r := range [][2]sim.Duration{{0, 200 * sim.Millisecond}, {sim.Second, 1200 * sim.Millisecond}} {
		for d := r[0]; d <= r[1]; d++ {
			if b = appendMillis1(b[:0], d); string(b) != fmt.Sprintf("%.1f", d.Millis()) {
				t.Fatalf("appendMillis1(%d) = %q", int64(d), b)
			}
			if b = appendDuration(b[:0], d); string(b) != d.String() {
				t.Fatalf("appendDuration(%d) = %q", int64(d), b)
			}
		}
	}
}
