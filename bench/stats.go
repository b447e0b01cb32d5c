package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. Nearest rank always returns a value that was measured,
// which keeps "all its digits" true for every reported time. An empty
// input yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the 50th percentile with the usual midpoint for even counts.
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

// tailCandidates are the percentiles a tail may be reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it (choosing-metrics §1), so a reported tail is
// never one or two outliers. ok is false below 40 samples, where even p75
// has fewer than ten samples past it.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		beyond := n - int(math.Ceil(c/100*float64(n)-1e-9)) // 1e-9: 99.9/100*n is not exact in binary
		if beyond >= 10 {
			return c, true
		}
	}
	return 0, false
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of the median — the steadiness measure the benchmark's
// bounds are held to. Quartiles follow Python's statistics.quantiles(xs,
// n=4) (the exclusive method), because that is what the acceptance check
// uses. Fewer than two samples have no spread.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	q := func(i int) float64 {
		// statistics.quantiles, method="exclusive": cut point i of 4
		// sits at i*(n+1)/4 (1-based), interpolated between neighbours.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
