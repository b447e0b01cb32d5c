package bcd

import (
	"testing"

	"graphabcd/internal/gen"
	"graphabcd/internal/graph"
)

// simpleSymmetric builds a simple (no self-loops, no duplicates) symmetric
// graph from an R-MAT sample — the domain where coreness is defined.
func simpleSymmetric(t *testing.T, scale, ef int, seed uint64) *graph.Graph {
	t.Helper()
	base, err := gen.RMAT(gen.DefaultRMAT(scale, ef, seed))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]uint32]bool{}
	var edges []graph.Edge
	for _, e := range base.Edges() {
		a, b := e.Src, e.Dst
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]uint32{a, b}] {
			continue
		}
		seen[[2]uint32{a, b}] = true
		edges = append(edges,
			graph.Edge{Src: a, Dst: b, Weight: 1},
			graph.Edge{Src: b, Dst: a, Weight: 1})
	}
	g, err := graph.FromEdges(base.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestKCoreProgramBasics(t *testing.T) {
	// Triangle + pendant: triangle vertices have coreness 2, pendant 1.
	g := mustGraph(t, 4, []graph.Edge{
		E(0, 1, 1), E(1, 0, 1), E(1, 2, 1), E(2, 1, 1),
		E(0, 2, 1), E(2, 0, 1), E(2, 3, 1), E(3, 2, 1),
	})
	k := KCore{}
	if k.Init(2, g) != 3 { // degree of the triangle vertex with the pendant
		t.Fatalf("Init = %d", k.Init(2, g))
	}
	acc := k.NewAccum()
	k.ResetAccum(&acc)
	// Vertex 2's neighbours claim estimates 2, 2, 1 -> h-index 2.
	gatherOne(k, &acc, 3, 1, 2)
	gatherOne(k, &acc, 3, 1, 2)
	gatherOne(k, &acc, 3, 1, 1)
	if got := k.Apply(2, 3, &acc, 3, g); got != 2 {
		t.Fatalf("Apply = %d, want h-index 2", got)
	}
	// Apply never raises an estimate.
	k.ResetAccum(&acc)
	gatherOne(k, &acc, 1, 1, 9)
	gatherOne(k, &acc, 1, 1, 9)
	if got := k.Apply(0, 1, &acc, 2, g); got != 1 {
		t.Fatalf("Apply raised the estimate to %d", got)
	}
	// Isolated vertex: coreness 0.
	if got := k.Apply(0, 5, &acc, 0, g); got != 0 {
		t.Fatalf("isolated vertex coreness = %d", got)
	}
	if k.Delta(3, 2) != 1 || k.Delta(2, 2) != 0 || k.Delta(2, 3) != 0 {
		t.Fatal("Delta wrong")
	}
}

func TestRefKCoreHandGraph(t *testing.T) {
	// A 4-clique with a tail: clique coreness 3, tail 1.
	var edges []graph.Edge
	for a := uint32(0); a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			edges = append(edges, E(a, b, 1), E(b, a, 1))
		}
	}
	edges = append(edges, E(3, 4, 1), E(4, 3, 1), E(4, 5, 1), E(5, 4, 1))
	g := mustGraph(t, 6, edges)
	core := RefKCore(g)
	want := []uint64{3, 3, 3, 3, 1, 1}
	for v := range want {
		if core[v] != want[v] {
			t.Fatalf("core[%d] = %d, want %d (all %v)", v, core[v], want[v], core)
		}
	}
}

// The h-index fixpoint equals exact peeling on a realistic graph. The
// fixpoint is computed synchronously here; the engine integration test in
// core exercises the asynchronous path.
func TestKCoreFixpointMatchesPeeling(t *testing.T) {
	g := simpleSymmetric(t, 8, 4, 13)
	want := RefKCore(g)
	k := KCore{}
	n := g.NumVertices()
	est := make([]uint64, n)
	for v := range est {
		est[v] = k.Init(uint32(v), g)
	}
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			acc := k.NewAccum()
			for s := g.InOffset(v); s < g.InOffset(v+1); s++ {
				gatherOne(k, &acc, est[v], 1, est[g.InSrc(s)])
			}
			nv := k.Apply(uint32(v), est[v], &acc, g.InOffset(v+1)-g.InOffset(v), g)
			if nv != est[v] {
				est[v] = nv
				changed = true
			}
		}
	}
	for v := 0; v < n; v++ {
		if est[v] != want[v] {
			t.Fatalf("core[%d] = %d, want %d", v, est[v], want[v])
		}
	}
}
