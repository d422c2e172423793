package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.Sum() != 40 {
		t.Fatalf("Sum = %v", s.Sum())
	}
	// Sample variance of this classic set is 32/7.
	if math.Abs(s.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", s.Variance(), 32.0/7.0)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.Stddev() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty Summary should report zeros")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(-3)
	if s.Variance() != 0 {
		t.Fatalf("single-sample variance = %v", s.Variance())
	}
	if s.Min() != -3 || s.Max() != -3 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryMatchesDirectComputation(t *testing.T) {
	check := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				return true // skip pathological inputs
			}
		}
		if len(xs) < 2 {
			return true
		}
		var s Summary
		for _, x := range xs {
			s.Add(x)
		}
		mean := Mean(xs)
		var m2 float64
		for _, x := range xs {
			m2 += (x - mean) * (x - mean)
		}
		v := m2 / float64(len(xs)-1)
		scale := math.Max(1, math.Abs(v))
		return math.Abs(s.Mean()-mean) < 1e-6*math.Max(1, math.Abs(mean)) &&
			math.Abs(s.Variance()-v) < 1e-6*scale
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Fatal("Clamp wrong")
	}
}
