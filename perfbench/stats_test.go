package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

// TestTailLeavesTenBeyond pins the tail rule: the reported value has at
// least ten samples above it, is the nearest-rank p99 once the sample
// is large enough, and is the maximum when no rank qualifies.
func TestTailLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64 // the value reported from samples 1..n
	}{
		{1, 1},
		{10, 10},     // nothing can have ten above it: the maximum
		{11, 1},      // exactly one rank has ten above it
		{90, 80},     // the suite's 90 jobs: rank 80 (p88.9)
		{1000, 990},  // p99 has exactly ten above it
		{1200, 1188}, // p99 by nearest rank, twelve above it
	} {
		xs := seq(tc.n)
		got := tail(xs)
		if got != tc.want {
			t.Errorf("tail of %d samples = %v, want %v", tc.n, got, tc.want)
		}
		beyond := 0
		for _, x := range xs {
			if x > got {
				beyond++
			}
		}
		if tc.n > tailBeyond && beyond < tailBeyond {
			t.Errorf("tail of %d samples leaves %d beyond, want >= %d", tc.n, beyond, tailBeyond)
		}
	}
	if _, pct := tailIndex(1000); pct != 99 {
		t.Errorf("tailIndex(1000) stands for p%v, want p99", pct)
	}
	if !math.IsNaN(tail(nil)) {
		t.Error("tail of no samples should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}
