package sim

import "math"

// Summary accumulates streaming summary statistics (Welford's algorithm)
// without storing samples.
type Summary struct {
	n          int64
	mean, m2   float64
	min, max   float64
	total      float64
	hasSamples bool
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	s.total += x
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
	if !s.hasSamples || x < s.min {
		s.min = x
	}
	if !s.hasSamples || x > s.max {
		s.max = x
	}
	s.hasSamples = true
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Sum returns the total of all observations.
func (s *Summary) Sum() float64 { return s.total }

// Min returns the smallest observation, or 0 with no observations.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with no observations.
func (s *Summary) Max() float64 { return s.max }

// Variance returns the sample variance, or 0 with fewer than two samples.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Variance()) }

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Clamp bounds v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
