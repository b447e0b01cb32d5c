package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"graphabcd/internal/bcd"
	"graphabcd/internal/graph"
	"graphabcd/internal/sched"
	"graphabcd/internal/telemetry"
	"graphabcd/internal/word"
)

// TestKernelBuildMatchesPerSlotInit checks the arrays NewKernel builds
// against the fill they replace — one Init per vertex of the range and
// one InitEdge per in-edge slot of it, each stored on its own — word for
// word, for every registry program (cf at an odd and an even rank), on a
// graph with self-loops and vertices of in- or out-degree 0.
func TestKernelBuildMatchesPerSlotInit(t *testing.T) {
	g := degenerateGraph(t, 15, 5, false)
	ppr, err := bcd.NewPPR(0.85, []uint32{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	buildMatchesPerSlotInit[float64, float64](t, g, bcd.PageRank{})
	buildMatchesPerSlotInit[float64, float64](t, g, bcd.PageRankDelta{})
	buildMatchesPerSlotInit[float64, float64](t, g, ppr)
	buildMatchesPerSlotInit[float64, float64](t, g, bcd.SSSP{Source: 3})
	buildMatchesPerSlotInit[uint64, uint64](t, g, bcd.BFS{Source: 3})
	buildMatchesPerSlotInit[uint64, uint64](t, g, bcd.CC{})
	buildMatchesPerSlotInit[uint64, bcd.LPAccum](t, g, bcd.LabelProp{})
	buildMatchesPerSlotInit[uint64, bcd.KCoreAccum](t, g, bcd.KCore{})
	for _, rank := range []int{7, 8} {
		buildMatchesPerSlotInit[[]float32, []float64](t, g, bcd.CF{Rank: rank, LearnRate: 0.3, Lambda: 0.01})
	}
}

// buildMatchesPerSlotInit runs the comparison over the whole graph, over
// node 1's range of a two-node split, and over that range of the partial
// graph a -listen/-join node 1 assembles.
func buildMatchesPerSlotInit[V, M any](t *testing.T, g *graph.Graph, prog bcd.Program[V, M]) {
	t.Helper()
	const blockSize = 7
	n := g.NumVertices()
	blo, bhi := BlockRange((n+blockSize-1)/blockSize, 2, 1)
	vlo, vhi := blo*blockSize, min(bhi*blockSize, n)
	for _, c := range []struct {
		name     string
		g        *graph.Graph
		vlo, vhi int
	}{
		{"whole graph", g, 0, n},
		{"node 1 of 2", g, vlo, vhi},
		{"node 1's partial graph", partialGraph(t, g, vlo, vhi), vlo, vhi},
	} {
		k, err := NewKernel(c.g, prog, blockSize, nil, 0, 0, c.vlo, c.vhi)
		if err != nil {
			t.Fatal(err)
		}
		codec := prog.Codec()
		values, cache := word.NewArray(codec, n), word.NewArray(codec, g.NumEdges())
		buf := make([]uint64, codec.Words())
		for v := c.vlo; v < c.vhi; v++ {
			values.StoreBuf(int64(v), prog.Init(uint32(v), c.g), buf)
		}
		for s := c.g.InOffset(c.vlo); s < c.g.InOffset(c.vhi); s++ {
			cache.StoreBuf(s, prog.InitEdge(c.g.InSrc(s), c.g), buf)
		}
		for _, a := range []struct {
			name      string
			got, want *word.Array[V]
		}{{"value", k.Values, values}, {"cache", k.Cache, cache}} {
			got, want := snapshot(a.got), snapshot(a.want)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("%s, %s: %s word %d is %#x after the build, the per-slot fill leaves %#x",
					prog.Name(), c.name, a.name, i, got[i], want[i])
			}
		}
	}
}

// partialGraph is g as a -listen/-join node owning vertices [vlo, vhi)
// receives it: both offset arrays whole, only its own in-edge and
// out-edge slices of the edge arrays, zeros elsewhere.
func partialGraph(t *testing.T, g *graph.Graph, vlo, vhi int) *graph.Graph {
	t.Helper()
	n, m := g.NumVertices(), g.NumEdges()
	inOff, outOff := make([]int64, n+1), make([]int64, n+1)
	for v := range inOff {
		inOff[v], outOff[v] = g.InOffset(v), g.OutOffset(v)
	}
	inSrc, inW := make([]uint32, m), make([]float32, m)
	outDst, outPos := make([]uint32, m), make([]int64, m)
	slo, shi := g.InOffset(vlo), g.InOffset(vhi)
	copy(inSrc[slo:], g.InSrcs(slo, shi))
	copy(inW[slo:], g.InWeightsRange(slo, shi))
	olo, ohi := g.OutOffset(vlo), g.OutOffset(vhi)
	copy(outDst[olo:], g.OutDstRange(olo, ohi))
	copy(outPos[olo:], g.OutPosRange(olo, ohi))
	pg, err := graph.FromSections(n, m, inOff, inSrc, inW, outOff, outDst, outPos)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

func snapshot[V any](a *word.Array[V]) []uint64 {
	out := make([]uint64, a.Len()*a.Words())
	a.SnapshotWords(0, int64(a.Len()), out)
	return out
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []uint64) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestScatterOneOwnerMatchesOwnerTable checks Scatter's one-owner case
// (w.Out nil: no owner loads, one prefetch per run) against the filtered
// path over an owner table naming the worker's own node for every block:
// over three gather-scatter rounds both must leave the same cache words
// and the same per-block activation mass, at a power-of-two and an odd
// block size, for a state-based and an operation-based program.
func TestScatterOneOwnerMatchesOwnerTable(t *testing.T) {
	g := degenerateGraph(t, 23, 1, false)
	for _, blockSize := range []int{8, 7} {
		scatterOneOwnerMatches[float64, float64](t, g, bcd.PageRank{}, blockSize)
		scatterOneOwnerMatches[float64, float64](t, g, bcd.PageRankDelta{}, blockSize)
	}
}

func scatterOneOwnerMatches[V, M any](t *testing.T, g *graph.Graph, prog bcd.Program[V, M], blockSize int) {
	t.Helper()
	n := g.NumVertices()
	type state struct {
		cache []uint64
		mass  []float64
	}
	run := func(withOut bool) []state {
		k, err := NewKernel(g, prog, blockSize, nil, 1e-9, math.MaxInt, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		nb := k.Part.NumBlocks()
		st := sched.NewState(nb)
		tel := telemetry.New(telemetry.Options{})
		w := k.NewWorker(&tel.Shards(1)[0], 0, st, nil)
		if withOut {
			w.Out = make([]Batch, 2)
		}
		deltas, dvals := make([]float64, n), make([]V, n)
		var states []state
		for round := 0; round < 3; round++ {
			for b := 0; b < nb; b++ {
				lo, hi := k.Part.VertexRange(b)
				if _, err := k.GatherApply(lo, hi, deltas[lo:hi], dvals[lo:hi], w); err != nil {
					t.Fatal(err)
				}
				k.Scatter(lo, hi, deltas[lo:hi], dvals[lo:hi], w)
			}
			s := state{cache: snapshot(k.Cache), mass: make([]float64, nb)}
			for b := range s.mass {
				if st.Active(b) {
					s.mass[b] = st.Priority(b)
				}
			}
			states = append(states, s)
		}
		return states
	}
	one, table := run(false), run(true)
	for round := range one {
		name := fmt.Sprintf("%s, block size %d, round %d", prog.Name(), blockSize, round)
		if i := firstDiff(one[round].cache, table[round].cache); i >= 0 {
			t.Fatalf("%s: cache word %d is %#x with no batches, %#x over the all-self owner table",
				name, i, one[round].cache[i], table[round].cache[i])
		}
		if !slices.Equal(one[round].mass, table[round].mass) {
			t.Fatalf("%s: block mass %v with no batches, %v over the all-self owner table",
				name, one[round].mass, table[round].mass)
		}
	}
}
