package graphabcd

import (
	"bytes"
	"context"
	"math"
	"testing"
)

// runSpec runs one job to completion on a fresh Runtime — the one public
// way to run a built-in algorithm.
func runSpec(t *testing.T, spec JobSpec) *JobResult {
	t.Helper()
	h, err := NewRuntime().Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// ring builds 0->1->...->n-1->0 with unit weights.
func ring(t *testing.T, n int) *Graph {
	t.Helper()
	edges := make([]Edge, n)
	for v := 0; v < n; v++ {
		edges[v] = Edge{Src: uint32(v), Dst: uint32((v + 1) % n), Weight: 1}
	}
	g, err := NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFacadePageRank(t *testing.T) {
	g := ring(t, 64)
	res := runSpec(t, NewJobSpec("pagerank", g, WithConfig(DefaultConfig(8))))
	if !res.Stats.Converged {
		t.Fatal("did not converge")
	}
	for v, x := range res.Float {
		if math.Abs(x-1.0/64) > 1e-6 {
			t.Fatalf("ring rank[%d] = %g, want uniform", v, x)
		}
	}
}

func TestFacadeTraversals(t *testing.T) {
	g := ring(t, 16)
	cfg := DefaultConfig(4)
	sp := runSpec(t, NewJobSpec("sssp", g, WithSource(0), WithConfig(cfg)))
	if sp.Float[5] != 5 {
		t.Fatalf("dist[5] = %g", sp.Float[5])
	}
	bfs := runSpec(t, NewJobSpec("bfs", g, WithSource(0), WithConfig(cfg)))
	if bfs.Uint[7] != 7 {
		t.Fatalf("level[7] = %d", bfs.Uint[7])
	}
	cc := runSpec(t, NewJobSpec("cc", g, WithConfig(cfg)))
	for v, l := range cc.Uint {
		if l != 0 {
			t.Fatalf("label[%d] = %d, want 0 (single ring)", v, l)
		}
	}
	cfg.MaxEpochs = 10
	if lp := runSpec(t, NewJobSpec("labelprop", g, WithConfig(cfg))); len(lp.Uint) != g.NumVertices() {
		t.Fatalf("labelprop returned %d labels for %d vertices", len(lp.Uint), g.NumVertices())
	}
}

func TestFacadeCF(t *testing.T) {
	rg, err := Rating(DefaultRating(40, 20, 300, 3))
	if err != nil {
		t.Fatal(err)
	}
	params := CF{Rank: 8, LearnRate: 0.3, Lambda: 0.01}
	cfg := DefaultConfig(16)
	cfg.MaxEpochs = 30
	res := runSpec(t, NewJobSpec("cf", rg.Graph, WithCFParams(params), WithConfig(cfg)))
	if rmse := params.RMSE(rg.Graph, res.Vectors); rmse > 2.5 {
		t.Fatalf("RMSE = %g, CF did not learn", rmse)
	}
}

func TestFacadeGenerators(t *testing.T) {
	if g, err := RMAT(DefaultRMAT(6, 4, 1)); err != nil || g.NumVertices() != 64 {
		t.Fatalf("RMAT: %v", err)
	}
	if g, err := Uniform(10, 20, 4, 1); err != nil || g.NumEdges() != 20 {
		t.Fatalf("Uniform: %v", err)
	}
	if g, err := Grid(3, 3, 0, 1); err != nil || g.NumVertices() != 9 {
		t.Fatalf("Grid: %v", err)
	}
}

func TestFacadeSimulatorAndIO(t *testing.T) {
	g := ring(t, 32)
	sim, err := NewSimulator(DefaultHARPv2())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(8)
	cfg.Sim = sim
	res := runSpec(t, NewJobSpec("pagerank", g, WithConfig(cfg)))
	if res.Stats.SimTimeNs <= 0 {
		t.Fatal("simulator not driven")
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("edge list round trip lost edges")
	}
}

// Run with an explicitly instantiated custom program exercises the generic
// facade path.
func TestFacadeGenericRun(t *testing.T) {
	g := ring(t, 16)
	res, err := Run[float64, float64](g, PageRank{Damping: 0.5}, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("not converged")
	}
}
