package bcd

import (
	"math"
	"testing"

	"graphabcd/internal/gen"
	"graphabcd/internal/graph"
)

// E builds an edge literal tersely for tests.
func E(src, dst uint32, w float32) graph.Edge {
	return graph.Edge{Src: src, Dst: dst, Weight: w}
}

// gatherOne folds one in-edge with cached source value src: the
// one-edge run of Program.Gather.
func gatherOne[V, M any](p Program[V, M], acc *M, dst V, weight float32, src V) {
	words := make([]uint64, p.Codec().Words())
	p.Codec().Encode(src, words)
	p.Gather(acc, dst, []float32{weight}, words)
}

func mustGraph(t *testing.T, n int, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// cycle4 is 0->1->2->3->0.
func cycle4(t *testing.T) *graph.Graph {
	t.Helper()
	return mustGraph(t, 4, []graph.Edge{E(0, 1, 1), E(1, 2, 1), E(2, 3, 1), E(3, 0, 1)})
}

func TestPageRankDefaults(t *testing.T) {
	p := PageRank{}
	if p.damping() != 0.85 {
		t.Fatalf("default damping = %g", p.damping())
	}
	if (PageRank{Damping: 0.5}).damping() != 0.5 {
		t.Fatal("explicit damping ignored")
	}
	if p.Name() != "pagerank" || p.Codec().Words() != 1 {
		t.Fatal("identity wrong")
	}
}

func TestPageRankStepOnCycle(t *testing.T) {
	g := cycle4(t)
	p := PageRank{}
	// Uniform rank on a cycle is the stationary point: apply must be a
	// fixed point.
	old := p.Init(0, g)
	acc := p.NewAccum()
	p.ResetAccum(&acc)
	gatherOne(p, &acc, old, 1, p.InitEdge(3, g))
	got := p.Apply(0, old, &acc, 1, g)
	if math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("Apply on stationary cycle = %g, want 0.25", got)
	}
	if p.Delta(old, got) > 1e-12 {
		t.Fatal("Delta at fixed point should be ~0")
	}
}

func TestPageRankScatterScaling(t *testing.T) {
	g := mustGraph(t, 3, []graph.Edge{E(0, 1, 1), E(0, 2, 1)})
	p := PageRank{}
	if got := p.ScatterValue(0, 0.6, g); got != 0.3 {
		t.Fatalf("ScatterValue = %g, want 0.3", got)
	}
	// Dangling vertex: value returned unscaled (never read).
	if got := p.ScatterValue(1, 0.6, g); got != 0.6 {
		t.Fatalf("dangling ScatterValue = %g", got)
	}
}

func TestPageRankL1ResidualAtSolution(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(7, 4, 11))
	if err != nil {
		t.Fatal(err)
	}
	p := PageRank{}
	x := RefPageRank(g, 0.85, 1e-12, 500)
	if res := p.L1Residual(g, x); res > 1e-9 {
		t.Fatalf("residual at converged solution = %g", res)
	}
	// Residual at the uniform start must be positive on a skewed graph.
	x0 := make([]float64, g.NumVertices())
	for i := range x0 {
		x0[i] = 1 / float64(g.NumVertices())
	}
	if res := p.L1Residual(g, x0); res <= 0 {
		t.Fatalf("residual at start = %g, want > 0", res)
	}
}

func TestSSSPGatherApply(t *testing.T) {
	g := cycle4(t)
	s := SSSP{Source: 0}
	if s.Init(0, g) != 0 || !math.IsInf(s.Init(1, g), 1) {
		t.Fatal("Init wrong")
	}
	acc := s.NewAccum()
	s.ResetAccum(&acc)
	gatherOne(s, &acc, math.Inf(1), 2.5, 1.0) // src dist 1, weight 2.5
	gatherOne(s, &acc, math.Inf(1), 9, 0.5)
	if acc != 3.5 {
		t.Fatalf("gather min = %g, want 3.5", acc)
	}
	if got := s.Apply(2, 3.0, &acc, 2, g); got != 3.0 {
		t.Fatalf("Apply must keep smaller old value, got %g", got)
	}
	if got := s.Apply(2, 10.0, &acc, 2, g); got != 3.5 {
		t.Fatalf("Apply = %g, want 3.5", got)
	}
}

func TestSSSPDelta(t *testing.T) {
	s := SSSP{}
	if s.Delta(5, 5) != 0 || s.Delta(5, 6) != 0 {
		t.Fatal("non-improving delta must be 0")
	}
	if s.Delta(math.Inf(1), 4) <= 0 {
		t.Fatal("frontier expansion must carry positive mass")
	}
	// Nearer vertices carry more mass (delta-stepping flavour).
	if s.Delta(math.Inf(1), 1) <= s.Delta(math.Inf(1), 10) {
		t.Fatal("near-source mass should exceed far mass")
	}
	if s.Delta(10, 9) <= 0 {
		t.Fatal("finite improvement must be positive")
	}
}

func TestBFSProgram(t *testing.T) {
	g := cycle4(t)
	b := BFS{Source: 2}
	if b.Init(2, g) != 0 || b.Init(0, g) != Unreached {
		t.Fatal("Init wrong")
	}
	acc := b.NewAccum()
	b.ResetAccum(&acc)
	gatherOne(b, &acc, Unreached, 1, Unreached) // unreached src ignored
	if acc != Unreached {
		t.Fatal("unreached source must not relax")
	}
	gatherOne(b, &acc, Unreached, 1, 3)
	if acc != 4 {
		t.Fatalf("gather = %d, want 4", acc)
	}
	if got := b.Apply(0, Unreached, &acc, 1, g); got != 4 {
		t.Fatalf("Apply = %d", got)
	}
	if b.Delta(Unreached, 4) <= 0 || b.Delta(4, 4) != 0 {
		t.Fatal("Delta wrong")
	}
	if b.Delta(Unreached, 0) <= b.Delta(Unreached, 5) {
		t.Fatal("shallow levels should carry more mass")
	}
}

func TestCCProgram(t *testing.T) {
	g := cycle4(t)
	c := CC{}
	if c.Init(3, g) != 3 {
		t.Fatal("Init wrong")
	}
	acc := c.NewAccum()
	c.ResetAccum(&acc)
	gatherOne(c, &acc, 3, 1, 7)
	gatherOne(c, &acc, 3, 1, 2)
	if acc != 2 {
		t.Fatalf("gather min = %d", acc)
	}
	if got := c.Apply(3, 3, &acc, 2, g); got != 2 {
		t.Fatalf("Apply = %d", got)
	}
	if c.Delta(3, 2) != 1 || c.Delta(2, 2) != 0 {
		t.Fatal("Delta wrong")
	}
}

func TestLabelPropMajority(t *testing.T) {
	g := cycle4(t)
	l := LabelProp{}
	acc := l.NewAccum()
	l.ResetAccum(&acc)
	gatherOne(l, &acc, 9, 1.0, 5)
	gatherOne(l, &acc, 9, 2.0, 7)
	gatherOne(l, &acc, 9, 0.5, 5)
	// 7 has weight 2.0, 5 has 1.5.
	if got := l.Apply(0, 9, &acc, 3, g); got != 7 {
		t.Fatalf("majority label = %d, want 7", got)
	}
	// Tie breaks toward smaller label.
	l.ResetAccum(&acc)
	gatherOne(l, &acc, 9, 1.0, 8)
	gatherOne(l, &acc, 9, 1.0, 3)
	if got := l.Apply(0, 9, &acc, 2, g); got != 3 {
		t.Fatalf("tie-break label = %d, want 3", got)
	}
	// No votes: keep old label.
	l.ResetAccum(&acc)
	if got := l.Apply(0, 9, &acc, 0, g); got != 9 {
		t.Fatalf("isolated vertex label = %d, want 9", got)
	}
	if l.Delta(9, 7) != 1 || l.Delta(7, 7) != 0 {
		t.Fatal("Delta wrong")
	}
}

func TestCFDefaultsAndInitDeterminism(t *testing.T) {
	c := CF{}
	if c.rank() != 8 || c.learnRate() != 0.2 || c.lambda() != 0.01 {
		t.Fatal("defaults wrong")
	}
	g := cycle4(t)
	a := c.Init(3, g)
	b := c.Init(3, g)
	if len(a) != 8 {
		t.Fatalf("rank = %d", len(a))
	}
	for k := range a {
		if a[k] != b[k] {
			t.Fatal("Init not deterministic")
		}
		if math.Abs(float64(a[k])) > 1/math.Sqrt(8)+1e-6 {
			t.Fatalf("init lane %d = %g outside scale", k, a[k])
		}
	}
	d := c.Init(4, g)
	same := true
	for k := range a {
		if a[k] != d[k] {
			same = false
		}
	}
	if same {
		t.Fatal("different vertices got identical factors")
	}
}

func TestCFGradientStepReducesError(t *testing.T) {
	// One user (vertex 0), one item (vertex 1), rating 4. Repeated
	// alternating updates must drive the predicted rating toward 4.
	g := mustGraph(t, 2, []graph.Edge{E(0, 1, 4), E(1, 0, 4)})
	c := CF{Rank: 4, LearnRate: 0.5, Lambda: 0.001}
	x := [][]float32{c.Init(0, g), c.Init(1, g)}
	pred := func() float64 {
		dot := 0.0
		for k := range x[0] {
			dot += float64(x[0][k]) * float64(x[1][k])
		}
		return dot
	}
	update := func(v, other int) {
		acc := c.NewAccum()
		c.ResetAccum(&acc)
		gatherOne(c, &acc, x[v], 4, x[other])
		x[v] = c.Apply(uint32(v), x[v], &acc, 1, g)
	}
	before := math.Abs(4 - pred())
	for i := 0; i < 200; i++ {
		update(0, 1)
		update(1, 0)
	}
	after := math.Abs(4 - pred())
	if after > before/10 || after > 0.5 {
		t.Fatalf("error %g -> %g: gradient steps did not converge", before, after)
	}
}

func TestCFApplyZeroEdgesKeepsValue(t *testing.T) {
	g := cycle4(t)
	c := CF{Rank: 2}
	old := []float32{1, 2}
	acc := c.NewAccum()
	got := c.Apply(0, old, &acc, 0, g)
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("Apply(0 edges) = %v", got)
	}
	got[0] = 99 // must be a copy, not an alias of old
	if old[0] != 1 {
		t.Fatal("Apply aliased its input")
	}
}

func TestCFDeltaAndRMSE(t *testing.T) {
	c := CF{Rank: 2}
	if d := c.Delta([]float32{1, 1}, []float32{2, 0.5}); math.Abs(d-1.5) > 1e-9 {
		t.Fatalf("Delta = %g", d)
	}
	// RMSE with perfect factors is 0.
	g := mustGraph(t, 2, []graph.Edge{E(0, 1, 2), E(1, 0, 2)})
	x := [][]float32{{1, 1}, {1, 1}} // dot = 2 = rating
	if r := c.RMSE(g, x); r != 0 {
		t.Fatalf("RMSE at exact factors = %g", r)
	}
	x[1] = []float32{0, 0} // prediction 0, err 2 on both edges
	if r := c.RMSE(g, x); math.Abs(r-2) > 1e-9 {
		t.Fatalf("RMSE = %g, want 2", r)
	}
	empty := mustGraph(t, 1, nil)
	if r := c.RMSE(empty, [][]float32{{0, 0}}); r != 0 {
		t.Fatalf("RMSE on empty graph = %g", r)
	}
}

func TestRefSSSPAgainstHand(t *testing.T) {
	//     0 -1-> 1 -1-> 2
	//      \--------3-----^  (0->2 weight 3)
	g := mustGraph(t, 3, []graph.Edge{E(0, 1, 1), E(1, 2, 1), E(0, 2, 3)})
	d := RefSSSP(g, 0)
	want := []float64{0, 1, 2}
	for v := range want {
		if d[v] != want[v] {
			t.Fatalf("dist[%d] = %g, want %g", v, d[v], want[v])
		}
	}
	d = RefSSSP(g, 2)
	if d[2] != 0 || !math.IsInf(d[0], 1) || !math.IsInf(d[1], 1) {
		t.Fatal("unreachable distances wrong")
	}
}

func TestRefBFSAndCC(t *testing.T) {
	g := mustGraph(t, 5, []graph.Edge{E(0, 1, 1), E(1, 2, 1), E(0, 3, 1)})
	lv := RefBFS(g, 0)
	want := []uint64{0, 1, 2, 1, Unreached}
	for v := range want {
		if lv[v] != want[v] {
			t.Fatalf("level[%d] = %d, want %d", v, lv[v], want[v])
		}
	}
	// Symmetric two-component graph for CC.
	g2 := mustGraph(t, 5, []graph.Edge{
		E(0, 1, 1), E(1, 0, 1), E(1, 2, 1), E(2, 1, 1), E(3, 4, 1), E(4, 3, 1),
	})
	cc := RefCC(g2)
	if cc[0] != 0 || cc[1] != 0 || cc[2] != 0 || cc[3] != 3 || cc[4] != 3 {
		t.Fatalf("components = %v", cc)
	}
}

func TestRefPageRankSumsToOne(t *testing.T) {
	// On a graph with no dangling vertices, ranks must sum to 1.
	g := cycle4(t)
	x := RefPageRank(g, 0.85, 1e-14, 200)
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ranks sum to %g", sum)
	}
	// Cycle symmetry: all equal.
	for v := 1; v < 4; v++ {
		if math.Abs(x[v]-x[0]) > 1e-12 {
			t.Fatalf("cycle ranks differ: %v", x)
		}
	}
}
