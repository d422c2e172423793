package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(100 - i) // reversed: percentile must sort
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(vals, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestSupportedNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 0.99, true},
		{999, 0.99, false},
		{20, 0.5, true},
		{19, 0.5, false},
		{0, 0.5, false},
	} {
		if got := supported(tc.n, tc.p); got != tc.want {
			t.Errorf("supported(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

// The quartiles must match Python's statistics.quantiles(data, n=4),
// which judges run-to-run spread; the expected values come from it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(append([]float64(nil), tc.vals...))
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.vals, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSpreadIsIQROverMedian(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
}

func TestSketchQuantileWithinBucketError(t *testing.T) {
	var s sketch
	var exact []float64
	for i := 1; i <= 10000; i++ {
		ns := float64(i * 7 % 5000)
		s.add(ns)
		exact = append(exact, ns)
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		want := percentile(exact, p)
		got := s.quantile(p)
		if math.Abs(got-want)/want > 0.1 {
			t.Errorf("sketch p%v = %v, exact %v: off by more than 10%%", p, got, want)
		}
	}
	var empty sketch
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("empty sketch quantile = %v, want 0", got)
	}
}

func TestSummarizeGroupsRunsByWorkload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.txt")
	out := ""
	for _, v := range []string{"1", "2", "3", "4"} {
		out += `{"env":{"workload":"w"}}` + "\n" +
			`{"correct":true,"attempted":1,"failed":0,"metrics":{"wall_s":{"value":` + v + `,"unit":"s"}}}` + "\n"
	}
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := summarize(path, &b); err != nil {
		t.Fatal(err)
	}
	// quantiles([1,2,3,4]) = 1.25, 3.75 around a median of 2.5.
	if want := "| w | wall_s (s) | 4 | 2.5 | 1.25 | 3.75 | 1.000 |"; !strings.Contains(b.String(), want) {
		t.Fatalf("summary\n%s\nlacks %q", b.String(), want)
	}
}
