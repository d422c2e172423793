package main

import (
	"math"
	"sort"
)

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// minBeyond is how many samples must lie above a reported percentile: a
// p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of vals,
// which it sorts in place. It returns 0 for an empty slice.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[rank(len(vals), p)-1]
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supported reports whether the p-quantile of n samples has at least
// minBeyond samples above it.
func supported(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minBeyond
}

// median is the midpoint median (the mean of the two middle values for an
// even count), matching Python's statistics.median. It sorts vals.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sort.Float64s(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(vals, n=4) computes them (the default "exclusive"
// method), which is how run-to-run spread is judged. It sorts vals and
// needs at least two values.
func quartiles(vals []float64) (q1, q3 float64) {
	sort.Float64s(vals)
	ld := len(vals)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (vals[j-1]*(4-delta) + vals[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q3 := quartiles(vals)
	med := median(vals)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// sketch is a log-bucketed histogram of positive durations in
// nanoseconds: eight buckets per power of two, so a reported quantile is
// within about 9% of the true value. It records hot calls without keeping
// every sample.
type sketch struct {
	counts []uint64
	n      uint64
}

const sketchSubBuckets = 8

func sketchBucket(ns float64) int {
	if ns < 1 {
		return 0
	}
	return int(math.Log2(ns) * sketchSubBuckets)
}

func (s *sketch) add(ns float64) {
	b := sketchBucket(ns)
	if b >= len(s.counts) {
		grown := make([]uint64, b+1) //vet:alloc grows to the slowest call's bucket a few times per traced run, then stays
		copy(grown, s.counts)
		s.counts = grown
	}
	s.counts[b]++
	s.n++
}

// quantile returns the geometric midpoint of the bucket holding the
// nearest-rank p-quantile, or 0 when the sketch is empty.
func (s *sketch) quantile(p float64) float64 {
	if s.n == 0 {
		return 0
	}
	want := uint64(rank(int(s.n), p))
	var seen uint64
	for b, c := range s.counts {
		seen += c
		if seen >= want {
			return math.Exp2((float64(b) + 0.5) / sketchSubBuckets)
		}
	}
	return 0
}
