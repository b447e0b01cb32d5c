package bcd

import (
	"math"

	"graphabcd/internal/graph"
	"graphabcd/internal/word"
)

// SSSP is single-source shortest path in BCD form (Sec. III-A discussion):
// coordinate descent on F(x) = 1/2 sum_i (x_i - min_j (x_j + a_ji))^2,
// whose per-vertex update is the Bellman-Ford relaxation
// x_i <- min(x_i, min over in-edges (x_src + w)). Updates are monotone
// non-increasing, so asynchronous stale reads can only delay, never break,
// convergence.
type SSSP struct {
	// Source is the source vertex (distance 0).
	Source uint32
}

// Name implements Program.
func (SSSP) Name() string { return "sssp" }

// Codec implements Program.
func (SSSP) Codec() word.Codec[float64] { return word.F64{} }

// Init implements Program.
func (s SSSP) Init(v uint32, _ *graph.Graph) float64 {
	if v == s.Source {
		return 0
	}
	return math.Inf(1)
}

// InitEdge implements Program.
func (s SSSP) InitEdge(src uint32, g *graph.Graph) float64 { return s.Init(src, g) }

// NewAccum implements Program.
func (SSSP) NewAccum() float64 { return math.Inf(1) }

// ResetAccum implements Program.
func (SSSP) ResetAccum(acc *float64) { *acc = math.Inf(1) }

// Gather implements Program: min-plus relaxation.
func (SSSP) Gather(acc *float64, _ float64, weights []float32, words []uint64) {
	for e, w := range weights {
		if cand := math.Float64frombits(words[e]) + float64(w); cand < *acc {
			*acc = cand
		}
	}
}

// Apply implements Program.
func (SSSP) Apply(_ uint32, old float64, acc *float64, _ int64, _ *graph.Graph) float64 {
	if *acc < old {
		return *acc
	}
	return old
}

// ScatterValue implements Program.
func (SSSP) ScatterValue(_ uint32, val float64, _ *graph.Graph) float64 { return val }

// Delta implements Program. Distances only decrease. The gradient mass is
// scaled by 1/(1+dist) so that blocks near the source are prioritized, the
// Δ-stepping-flavoured rule the paper cites as the canonical SSSP priority
// (Sec. III-B); a transition from unreached (+Inf) contributes unit mass
// before scaling so priorities stay finite.
func (SSSP) Delta(old, new float64) float64 {
	if new >= old {
		return 0
	}
	if math.IsInf(old, 1) {
		return 1 / (1 + new)
	}
	return (old - new) / (1 + new)
}
