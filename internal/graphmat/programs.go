package graphmat

import (
	"math"

	"graphabcd/internal/bcd"
	"graphabcd/internal/graph"
)

// PageRank is GraphMat's PR program: message x/outdeg, sum reduction,
// damped apply. Eps is the per-vertex change threshold that keeps a vertex
// active; zero means 1e-9.
type PageRank struct {
	Damping float64
	Eps     float64
}

func (p PageRank) damping() float64 {
	if p.Damping == 0 {
		return 0.85
	}
	return p.Damping
}

func (p PageRank) eps() float64 {
	if p.Eps == 0 {
		return 1e-9
	}
	return p.Eps
}

// Name implements Program.
func (PageRank) Name() string { return "pagerank" }

// Init implements Program.
func (PageRank) Init(_ uint32, g *graph.Graph) float64 { return 1 / float64(g.NumVertices()) }

// Send implements Program.
func (PageRank) Send(v uint32, val float64, g *graph.Graph) (float64, bool) {
	if deg := g.OutDegree(v); deg > 0 {
		return val / float64(deg), true
	}
	return 0, false
}

// Process implements Program.
func (PageRank) Process(msg float64, _ float32) float64 { return msg }

// Identity implements Program.
func (PageRank) Identity() float64 { return 0 }

// Reduce implements Program.
func (PageRank) Reduce(a, b float64) float64 { return a + b }

// Apply implements Program. PR is dense, so received=false means the
// vertex has no in-edges at all and its rank is the bare teleport term —
// acc is the identity 0 in that case, so the formula covers both.
func (p PageRank) Apply(_ uint32, _ float64, acc float64, _ bool, g *graph.Graph) float64 {
	d := p.damping()
	return (1-d)/float64(g.NumVertices()) + d*acc
}

// Changed implements Program.
func (p PageRank) Changed(old, new float64) bool { return math.Abs(new-old) > p.eps() }

// Dense implements Program: PR sums need every source every sweep.
func (PageRank) Dense() bool { return true }

// SSSP is GraphMat's SSSP: distance messages with min-plus semantics. The
// active-vertex filter gives GraphMat its data-driven SSSP behaviour.
type SSSP struct{ Source uint32 }

// Name implements Program.
func (SSSP) Name() string { return "sssp" }

// Init implements Program.
func (s SSSP) Init(v uint32, _ *graph.Graph) float64 {
	if v == s.Source {
		return 0
	}
	return math.Inf(1)
}

// Send implements Program: unreached vertices have nothing to offer.
func (SSSP) Send(_ uint32, val float64, _ *graph.Graph) (float64, bool) {
	return val, !math.IsInf(val, 1)
}

// Process implements Program.
func (SSSP) Process(msg float64, w float32) float64 { return msg + float64(w) }

// Identity implements Program.
func (SSSP) Identity() float64 { return math.Inf(1) }

// Reduce implements Program.
func (SSSP) Reduce(a, b float64) float64 { return math.Min(a, b) }

// Apply implements Program.
func (SSSP) Apply(_ uint32, old float64, acc float64, received bool, _ *graph.Graph) float64 {
	if received && acc < old {
		return acc
	}
	return old
}

// Changed implements Program.
func (SSSP) Changed(old, new float64) bool { return new < old }

// Dense implements Program: min-plus tolerates the active filter.
func (SSSP) Dense() bool { return false }

// BFS is GraphMat's breadth-first search by level propagation.
type BFS struct{ Source uint32 }

// Name implements Program.
func (BFS) Name() string { return "bfs" }

// Init implements Program.
func (b BFS) Init(v uint32, _ *graph.Graph) uint64 {
	if v == b.Source {
		return 0
	}
	return bcd.Unreached
}

// Send implements Program.
func (BFS) Send(_ uint32, val uint64, _ *graph.Graph) (uint64, bool) {
	return val, val != bcd.Unreached
}

// Process implements Program.
func (BFS) Process(msg uint64, _ float32) uint64 { return msg + 1 }

// Identity implements Program.
func (BFS) Identity() uint64 { return bcd.Unreached }

// Reduce implements Program.
func (BFS) Reduce(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// Apply implements Program.
func (BFS) Apply(_ uint32, old uint64, acc uint64, received bool, _ *graph.Graph) uint64 {
	if received && acc < old {
		return acc
	}
	return old
}

// Changed implements Program.
func (BFS) Changed(old, new uint64) bool { return new < old }

// Dense implements Program.
func (BFS) Dense() bool { return false }

// CC is GraphMat's connected components by min-label propagation.
type CC struct{}

// Name implements Program.
func (CC) Name() string { return "cc" }

// Init implements Program.
func (CC) Init(v uint32, _ *graph.Graph) uint64 { return uint64(v) }

// Send implements Program.
func (CC) Send(_ uint32, val uint64, _ *graph.Graph) (uint64, bool) { return val, true }

// Process implements Program.
func (CC) Process(msg uint64, _ float32) uint64 { return msg }

// Identity implements Program.
func (CC) Identity() uint64 { return bcd.Unreached }

// Reduce implements Program.
func (CC) Reduce(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// Apply implements Program.
func (CC) Apply(_ uint32, old uint64, acc uint64, received bool, _ *graph.Graph) uint64 {
	if received && acc < old {
		return acc
	}
	return old
}

// Changed implements Program.
func (CC) Changed(old, new uint64) bool { return new < old }

// Dense implements Program.
func (CC) Dense() bool { return false }

// CFMsg is the message algebra that makes Collaborative Filtering
// expressible in pure message passing (as GraphMat's CF does): because
// sum over ratings of (r - x_i.x_j) x_j  ==  b - A x_i with
// b = sum of r*x_j and A = sum of x_j x_j^T, the per-edge messages carry
// (r*x_j, x_j x_j^T) and reduce by elementwise addition; Apply then takes
// the same gradient step as the GraphABCD CF program — the two frameworks
// compute bit-comparable updates from identical inputs.
type CFMsg struct {
	B []float64 // K
	A []float64 // K*K, row-major
}

// CF is GraphMat's collaborative filtering program. Configure it with the
// same rank/rates as the bcd.CF program for apples-to-apples comparisons.
type CF struct {
	Rank      int
	LearnRate float64
	Lambda    float64
	Seed      uint64
}

func (c CF) bcd() bcd.CF {
	return bcd.CF{Rank: c.Rank, LearnRate: c.LearnRate, Lambda: c.Lambda, Seed: c.Seed}
}

func (c CF) rank() int {
	if c.Rank == 0 {
		return 8
	}
	return c.Rank
}

func (c CF) learnRate() float64 {
	if c.LearnRate == 0 {
		return 0.2
	}
	return c.LearnRate
}

func (c CF) lambda() float64 {
	if c.Lambda == 0 {
		return 0.01
	}
	return c.Lambda
}

// Name implements Program.
func (CF) Name() string { return "cf" }

// Init implements Program: identical deterministic factors to bcd.CF.
func (c CF) Init(v uint32, g *graph.Graph) []float32 { return c.bcd().Init(v, g) }

// Identity implements Program.
func (c CF) Identity() CFMsg {
	k := c.rank()
	return CFMsg{B: make([]float64, k), A: make([]float64, k*k)}
}

// Reduce implements Program.
func (CF) Reduce(a, b CFMsg) CFMsg {
	for i := range a.B {
		a.B[i] += b.B[i]
	}
	for i := range a.A {
		a.A[i] += b.A[i]
	}
	return a
}

// Apply implements Program: gradient step x += lr*(grad/deg - lambda*x)
// with grad = B - A x.
func (c CF) Apply(v uint32, old []float32, acc CFMsg, received bool, g *graph.Graph) []float32 {
	if !received {
		return old
	}
	k := len(old)
	deg := float64(g.InDegree(v))
	lr, lam := c.learnRate(), c.lambda()
	//abcdlint:ignore hotpath -- fresh per-vertex value; the sweep still reads old for the gradient
	out := make([]float32, k)
	for i := 0; i < k; i++ {
		ax := 0.0
		for j := 0; j < k; j++ {
			ax += acc.A[i*k+j] * float64(old[j])
		}
		grad := acc.B[i] - ax
		out[i] = float32(float64(old[i]) + lr*(grad/deg-lam*float64(old[i])))
	}
	return out
}

// Dense implements Program: the gradient needs every rating every sweep.
func (CF) Dense() bool { return true }

// Changed implements Program: CF iterates until its budget.
func (CF) Changed(old, new []float32) bool {
	for i := range old {
		if old[i] != new[i] {
			return true
		}
	}
	return false
}

var _ Program[[]float32, CFMsg] = cfAdapter{}

// cfAdapter lifts CF into Program[[]float32, CFMsg] by fusing Send+Process
// (the message is the factor vector; processing expands it with the
// rating). NewCF returns the adapter ready to run.
type cfAdapter struct{ CF }

// NewCF builds the runnable GraphMat CF program.
func NewCF(c CF) Program[[]float32, CFMsg] { return cfAdapter{c} }

// Send implements Program: emit the raw factor; expansion happens in
// Process, which needs the edge's rating.
func (a cfAdapter) Send(v uint32, val []float32, g *graph.Graph) (CFMsg, bool) {
	// Defer expansion: pack the factor into B and mark A nil; Process
	// finishes the job. This keeps Send cheap for high-degree vertices.
	k := len(val)
	b := make([]float64, k) //abcdlint:ignore hotpath -- false positive: name-based interface resolution reaches this from cluster.Transport.Send; graphmat's sweep never runs on the cluster's hot path
	for i := range val {
		b[i] = float64(val[i])
	}
	return CFMsg{B: b}, true
}

// Process implements Program.
func (a cfAdapter) Process(msg CFMsg, w float32) CFMsg {
	k := len(msg.B)
	out := CFMsg{B: make([]float64, k), A: make([]float64, k*k)}
	for i := 0; i < k; i++ {
		out.B[i] = float64(w) * msg.B[i]
		for j := 0; j < k; j++ {
			out.A[i*k+j] = msg.B[i] * msg.B[j]
		}
	}
	return out
}
