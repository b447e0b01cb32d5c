package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {100, 10}, {10, 1}, {0.1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(median(nil)) {
		t.Error("empty input must yield NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want the midpoint 2.5", got)
	}
}

// The tail percentile is the highest candidate with at least ten samples
// beyond it; below 40 samples there is none.
func TestTailPercentileSelection(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false},
		{39, 0, false},
		{40, 75, true},   // 40 - ceil(30) = 10 beyond p75
		{99, 75, true},   // p90 would leave 9
		{100, 90, true},  // exactly 10 beyond p90
		{199, 90, true},  // p95 would leave 9
		{200, 95, true},  // exactly 10 beyond p95
		{1000, 99, true}, // exactly 10 beyond p99
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok {
			if beyond := c.n - int(math.Ceil(p/100*float64(c.n)-1e-9)); beyond < 10 {
				t.Errorf("tailPercentile(%d) = p%v leaves only %d samples beyond", c.n, p, beyond)
			}
		}
	}
}

// quartileSpread must agree with Python's statistics.quantiles(xs, n=4),
// which is what the acceptance check computes. Expected values are from
// python3: q = statistics.quantiles(xs, n=4); (q[2]-q[0])/median(xs).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 12, 11, 13, 10.5, 11.5, 12.5, 10.2, 11.1, 12.9}, (12.6 - 10.425) / 11.3},
		{[]float64{3, 1, 2}, (3.0 - 1.0) / 2.0},
		{[]float64{1, 2}, (2.25 - 0.75) / 1.5}, // the exclusive method extrapolates on tiny inputs
		{[]float64{7}, 0},
	} {
		if got := quartileSpread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
