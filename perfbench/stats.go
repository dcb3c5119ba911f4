package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middles for an
// even count); NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailIndex picks the sample reported as the p99: the 99th percentile
// (nearest rank) when at least tailBeyond samples lie beyond it,
// otherwise the highest rank that still leaves tailBeyond samples
// above. With tailBeyond or fewer samples no rank qualifies and the
// maximum is reported. pct is the percentile the index stands for.
func tailIndex(n int) (idx int, pct float64) {
	if n == 0 {
		return -1, math.NaN()
	}
	idx = int(math.Ceil(0.99*float64(n))) - 1
	if limit := n - 1 - tailBeyond; idx > limit {
		idx = limit
	}
	if idx < 0 {
		idx = n - 1
	}
	return idx, 100 * float64(idx+1) / float64(n)
}

// tail returns the sample tailIndex selects from xs.
func tail(xs []float64) float64 {
	idx, _ := tailIndex(len(xs))
	if idx < 0 {
		return math.NaN()
	}
	return sorted(xs)[idx]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// share divides a by b, reporting 0 for an empty base.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
