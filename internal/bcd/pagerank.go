package bcd

import (
	"math"

	"graphabcd/internal/graph"
	"graphabcd/internal/word"
)

// PageRank is the paper's running example (Sec. III-A2): the stationary
// point of x = Px + b with P = d*(G^-1 A)^T and b = (1-d)/|V|, solved by
// coordinate descent on F(x) = ||Px + b - x||^2 / 2.
//
// Edge caches hold the scatter image x_src / outdeg(src), so GATHER is a
// plain streaming sum — exactly the reduction the paper's FPGA pipeline
// implements.
type PageRank struct {
	// Damping is the damping factor d (paper: alpha). Zero value means 0.85.
	Damping float64
}

func (p PageRank) damping() float64 {
	if p.Damping == 0 {
		return 0.85
	}
	return p.Damping
}

// Name implements Program.
func (PageRank) Name() string { return "pagerank" }

// Codec implements Program.
func (PageRank) Codec() word.Codec[float64] { return word.F64{} }

// Init implements Program: uniform initial rank 1/|V|.
func (PageRank) Init(_ uint32, g *graph.Graph) float64 {
	return 1 / float64(g.NumVertices())
}

// InitEdge implements Program.
func (p PageRank) InitEdge(src uint32, g *graph.Graph) float64 {
	return p.ScatterValue(src, p.Init(src, g), g)
}

// NewAccum implements Program.
func (PageRank) NewAccum() float64 { return 0 }

// ResetAccum implements Program.
func (PageRank) ResetAccum(acc *float64) { *acc = 0 }

// Gather implements Program: sum of cached src/outdeg contributions.
func (PageRank) Gather(acc *float64, _ float64, _ []float32, words []uint64) {
	*acc = sumF64(*acc, words)
}

// sumF64 adds the float64s encoded in words to sum, in order.
func sumF64(sum float64, words []uint64) float64 {
	for _, w := range words {
		sum += math.Float64frombits(w)
	}
	return sum
}

// Apply implements Program.
func (p PageRank) Apply(_ uint32, _ float64, acc *float64, _ int64, g *graph.Graph) float64 {
	d := p.damping()
	return (1-d)/float64(g.NumVertices()) + d**acc
}

// ScatterValue implements Program: out-edges carry val / outdeg.
func (PageRank) ScatterValue(v uint32, val float64, g *graph.Graph) float64 {
	if deg := g.OutDegree(v); deg > 0 {
		return val / float64(deg)
	}
	return val // dangling vertex: no out-edges exist, value unused
}

// Delta implements Program.
func (PageRank) Delta(old, new float64) float64 { return math.Abs(new - old) }

// L1Residual returns sum_v |x_v - nextIteration(x)_v| for a full Jacobi
// sweep — the standard PageRank convergence metric, used by tests and the
// experiment harness to compare engines at equal accuracy.
func (p PageRank) L1Residual(g *graph.Graph, x []float64) float64 {
	d := p.damping()
	n := g.NumVertices()
	res := 0.0
	for v := 0; v < n; v++ {
		sum := 0.0
		for s := g.InOffset(v); s < g.InOffset(v+1); s++ {
			src := g.InSrc(s)
			sum += x[src] / float64(g.OutDegree(src))
		}
		next := (1-d)/float64(n) + d*sum
		res += math.Abs(next - x[v])
	}
	return res
}
