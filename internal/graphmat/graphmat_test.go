package graphmat

import (
	"math"
	"testing"

	"graphabcd/internal/bcd"
	"graphabcd/internal/gen"
	"graphabcd/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(9, 6, 77))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Threads: 2}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{Threads: 0}).Validate(); err == nil {
		t.Fatal("want error for zero threads")
	}
	if err := (Config{Threads: 1, MaxIters: -1}).Validate(); err == nil {
		t.Fatal("want error for negative MaxIters")
	}
	if _, err := Run[float64, float64](testGraph(t), PageRank{}, Config{}); err == nil {
		t.Fatal("Run accepted invalid config")
	}
}

func TestPageRankMatchesReference(t *testing.T) {
	g := testGraph(t)
	res, err := Run[float64, float64](g, PageRank{Eps: 1e-12}, Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("did not converge")
	}
	want := bcd.RefPageRank(g, 0.85, 1e-13, 1000)
	for v := range want {
		if d := math.Abs(res.Values[v] - want[v]); d > 1e-9 {
			t.Fatalf("rank[%d] off by %g", v, d)
		}
	}
	if res.Stats.Iterations < 10 {
		t.Fatalf("PR converged suspiciously fast: %d sweeps", res.Stats.Iterations)
	}
	if res.Stats.EdgesTraversed == 0 || res.Stats.VertexUpdates == 0 {
		t.Fatal("stats empty")
	}
}

func TestSSSPExactAndSparse(t *testing.T) {
	cfg := gen.DefaultRMAT(9, 6, 78)
	cfg.MaxWeight = 16
	g, err := gen.RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := uint32(3)
	res, err := Run[float64, float64](g, SSSP{Source: src}, Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := bcd.RefSSSP(g, src)
	for v := range want {
		got := res.Values[v]
		if got != want[v] && !(math.IsInf(got, 1) && math.IsInf(want[v], 1)) {
			t.Fatalf("dist[%d] = %g, want %g", v, got, want[v])
		}
	}
	// The active filter must keep SSSP's edge work well under
	// iterations * |E| (the dense cost).
	dense := int64(res.Stats.Iterations) * int64(g.NumEdges())
	if res.Stats.EdgesTraversed >= dense {
		t.Fatalf("SSSP scanned %d edges, dense would be %d — active filter broken",
			res.Stats.EdgesTraversed, dense)
	}
}

func TestBFSAndCCMatchReferences(t *testing.T) {
	g := testGraph(t)
	src := uint32(1)
	bres, err := Run[uint64, uint64](g, BFS{Source: src}, Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range bcd.RefBFS(g, src) {
		if bres.Values[v] != want {
			t.Fatalf("bfs level[%d] = %d, want %d", v, bres.Values[v], want)
		}
	}
	cres, err := Run[uint64, uint64](g, CC{}, Config{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range bcd.RefCC(g) {
		if cres.Values[v] != want {
			t.Fatalf("cc label[%d] = %d, want %d", v, cres.Values[v], want)
		}
	}
}

func TestCFLearnsAndMatchesBCDCF(t *testing.T) {
	rg, err := gen.Rating(gen.DefaultRating(50, 25, 500, 5))
	if err != nil {
		t.Fatal(err)
	}
	params := CF{Rank: 8, LearnRate: 0.3, Lambda: 0.01}
	prog := NewCF(params)
	res, err := Run[[]float32, CFMsg](rg.Graph, prog, Config{Threads: 4, MaxIters: 25})
	if err != nil {
		t.Fatal(err)
	}
	eval := params.bcd()
	init := make([][]float32, rg.Graph.NumVertices())
	for v := range init {
		init[v] = params.Init(uint32(v), rg.Graph)
	}
	before := eval.RMSE(rg.Graph, init)
	after := eval.RMSE(rg.Graph, res.Values)
	if after >= before*0.6 {
		t.Fatalf("GraphMat CF RMSE %g -> %g: did not learn", before, after)
	}
	if res.Stats.Iterations != 25 {
		t.Fatalf("iterations = %d, want budget 25", res.Stats.Iterations)
	}
}

// gatherOne folds one in-edge with cached source value src through
// Program.Gather (internal/bcd's test helper of the same name).
func gatherOne[V, M any](p bcd.Program[V, M], acc *M, dst V, weight float32, src V) {
	words := make([]uint64, p.Codec().Words())
	p.Codec().Encode(src, words)
	p.Gather(acc, dst, []float32{weight}, words)
}

// The CF message algebra (B - A x) must equal the direct per-edge gradient
// that the GraphABCD engine computes.
func TestCFMessageAlgebraEquivalence(t *testing.T) {
	g, err := graph.FromEdges(2, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 4}, {Src: 1, Dst: 0, Weight: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	params := CF{Rank: 4, LearnRate: 0.5, Lambda: 0.001}
	bc := params.bcd()
	x0, x1 := params.Init(0, g), params.Init(1, g)

	// Direct gather (GraphABCD path) at vertex 1.
	acc := bc.NewAccum()
	bc.ResetAccum(&acc)
	gatherOne(bc, &acc, x1, 4, x0)
	direct := bc.Apply(1, x1, &acc, 1, g)

	// Message path (GraphMat).
	prog := NewCF(params)
	msg, ok := prog.Send(0, x0, g)
	if !ok {
		t.Fatal("Send refused")
	}
	m := prog.Process(msg, 4)
	viaMsg := prog.Apply(1, x1, m, true, g)

	for k := range direct {
		if math.Abs(float64(direct[k]-viaMsg[k])) > 1e-6 {
			t.Fatalf("lane %d: direct %g vs message %g", k, direct[k], viaMsg[k])
		}
	}
}

func TestMaxItersBounds(t *testing.T) {
	g := testGraph(t)
	res, err := Run[float64, float64](g, PageRank{Eps: 0}, Config{Threads: 2, MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != 3 || res.Stats.Converged {
		t.Fatalf("iterations = %d converged = %v, want 3/false", res.Stats.Iterations, res.Stats.Converged)
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := graph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run[float64, float64](g, PageRank{}, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 0 || !res.Stats.Converged {
		t.Fatal("empty graph run wrong")
	}
}

func TestStatsMTEPS(t *testing.T) {
	if (Stats{}).MTEPS() != 0 {
		t.Fatal("zero stats MTEPS must be 0")
	}
}

// Regression for the dense-sweep rule: sum-based programs must gather from
// every source every sweep, even sources that have individually converged.
// On a star (spokes -> hub), the spokes converge after one sweep; if the
// active filter wrongly silenced them, the hub's sum would be truncated
// and oscillate instead of converging to the reference.
func TestDensePageRankStarRegression(t *testing.T) {
	var edges []graph.Edge
	const spokes = 20
	for s := uint32(1); s <= spokes; s++ {
		edges = append(edges, graph.Edge{Src: s, Dst: 0, Weight: 1})
	}
	edges = append(edges, graph.Edge{Src: 0, Dst: 1, Weight: 1})
	g, err := graph.FromEdges(spokes+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run[float64, float64](g, PageRank{Eps: 1e-13}, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("did not converge")
	}
	want := bcd.RefPageRank(g, 0.85, 1e-14, 2000)
	for v := range want {
		if d := math.Abs(res.Values[v] - want[v]); d > 1e-10 {
			t.Fatalf("rank[%d] off by %g — dense sweep truncated a sum", v, d)
		}
	}
}
