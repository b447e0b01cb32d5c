// Package graph provides the in-memory graph representation used by
// GraphABCD: a dual CSC/CSR layout designed for the pull-push vertex
// operator of the paper (Sec. IV-A2).
//
// The in-coming edges of each vertex are stored contiguously ("edge blocks"
// sliced by destination vertex, Fig. 1a), so the GATHER-APPLY stage streams
// them sequentially. Each out-edge additionally records the index of its
// in-edge slot (the position SCATTER must write the updated source value
// to), making scatter writes random but disjoint per source block.
package graph

import (
	"fmt"
	"runtime"
	"sort"
)

// Edge is a directed, weighted input edge.
type Edge struct {
	Src, Dst uint32
	Weight   float32
}

// Graph is an immutable directed multigraph in dual CSC/CSR form.
//
// The CSC ("in") view groups edges by destination vertex: the in-edges of
// vertex v occupy the half-open slot range [InOffset(v), InOffset(v+1)).
// Slot indices into this range identify the per-edge cache entries that the
// engine's SCATTER stage writes source values into.
//
// The CSR ("out") view groups edges by source vertex and stores, for every
// out-edge, the destination vertex and the CSC slot index of that same edge.
type Graph struct {
	n int // number of vertices
	m int // number of edges

	// CSC view (gather side): in-edges sorted by (dst, src).
	inOff []int64   // len n+1; inOff[v]..inOff[v+1] are v's in-edge slots
	inSrc []uint32  // len m; source vertex of each in-edge slot
	inW   []float32 // len m; static weight of each in-edge slot

	// CSR view (scatter side): out-edges sorted by src.
	outOff []int64  // len n+1
	outDst []uint32 // len m; destination of each out-edge
	outPos []int64  // len m; CSC slot index of the same edge

	outDeg []int32 // len n; out-degree of each vertex
	inDeg  []int32 // len n; in-degree of each vertex
}

// FromEdges builds a Graph over vertices [0, n) from an arbitrary edge list.
// Edges referencing vertices outside [0, n) yield an error. The input slice
// is not modified. Duplicate edges and self-loops are preserved.
//
// Construction is the Builder's parallel counting sort — linear in |E|
// rather than the O(|E| log |E|) comparison sort of FromEdgesSort, and
// parallel across GOMAXPROCS. The resulting inOff/inSrc/outOff/outDst/
// outPos arrays are identical to FromEdgesSort's; only the order of
// weights among exact duplicate (src, dst) pairs may differ (the legacy
// sort was unstable there, the counting sort is stable).
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for i, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edge %d (%d->%d) out of range [0,%d)", i, e.Src, e.Dst, n)
		}
	}
	b := NewBuilder(n)
	chunks := chunkBounds(len(edges), runtime.GOMAXPROCS(0))
	shards := make([]*Shard, len(chunks))
	for i := range chunks {
		shards[i] = b.NewShard()
	}
	parallelDo(len(chunks), func(i int) {
		sh := shards[i]
		sh.Grow(chunks[i].hi - chunks[i].lo)
		sh.AddEdges(edges[chunks[i].lo:chunks[i].hi])
	})
	return b.Build()
}

// FromEdgesSort is the original single-threaded sort-based builder,
// retained as the reference implementation for equivalence tests and the
// build benchmarks. New code should use FromEdges or a Builder.
func FromEdgesSort(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for i, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edge %d (%d->%d) out of range [0,%d)", i, e.Src, e.Dst, n)
		}
	}
	m := len(edges)
	g := &Graph{
		n:      n,
		m:      m,
		inOff:  make([]int64, n+1),
		inSrc:  make([]uint32, m),
		inW:    make([]float32, m),
		outOff: make([]int64, n+1),
		outDst: make([]uint32, m),
		outPos: make([]int64, m),
		outDeg: make([]int32, n),
		inDeg:  make([]int32, n),
	}

	// Order in-edge slots by (dst, src) without mutating the caller's slice.
	order := make([]int32, m)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := edges[order[a]], edges[order[b]]
		if ea.Dst != eb.Dst {
			return ea.Dst < eb.Dst
		}
		return ea.Src < eb.Src
	})

	// CSC arrays + degree counts.
	for i, idx := range order {
		e := edges[idx]
		g.inSrc[i] = e.Src
		g.inW[i] = e.Weight
		g.inDeg[e.Dst]++
		g.outDeg[e.Src]++
	}
	for v := 0; v < n; v++ {
		g.inOff[v+1] = g.inOff[v] + int64(g.inDeg[v])
		g.outOff[v+1] = g.outOff[v] + int64(g.outDeg[v])
	}

	// CSR arrays: scan CSC slots and bucket each edge under its source,
	// recording the CSC slot index for scatter.
	next := make([]int64, n)
	copy(next, g.outOff[:n])
	for slot := 0; slot < m; slot++ {
		src := g.inSrc[slot]
		dst := dstOfSlot(g, int64(slot))
		p := next[src]
		g.outDst[p] = dst
		g.outPos[p] = int64(slot)
		next[src] = p + 1
	}
	return g, nil
}

// dstOfSlot recovers the destination vertex of a CSC slot via binary search
// over the offset array. Used only during construction.
func dstOfSlot(g *Graph, slot int64) uint32 {
	lo, hi := 0, g.n // invariant: inOff[lo] <= slot < inOff[hi]
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if g.inOff[mid] <= slot {
			lo = mid
		} else {
			hi = mid
		}
	}
	return uint32(lo)
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// MemoryBytes returns the resident size of the dual CSC/CSR layout: the
// backing arrays of both views plus the degree caches. The serving
// layer's warm graph pool charges loaded graphs against its memory
// budget with exactly this figure.
func (g *Graph) MemoryBytes() int64 {
	perVertex := int64(8+8+4+4) * int64(g.n) // inOff + outOff + outDeg + inDeg
	perEdge := int64(4+4+4+8) * int64(g.m)   // inSrc + inW + outDst + outPos
	return perVertex + perEdge + 16          // offset sentinels inOff[n], outOff[n]
}

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.m }

// InOffset returns the first in-edge slot of vertex v; InOffset(n) == |E|.
func (g *Graph) InOffset(v int) int64 { return g.inOff[v] }

// InSrc returns the source vertex of in-edge slot i.
func (g *Graph) InSrc(i int64) uint32 { return g.inSrc[i] }

// InWeight returns the static weight of in-edge slot i.
func (g *Graph) InWeight(i int64) float32 { return g.inW[i] }

// OutOffset returns the first out-edge index of vertex v.
func (g *Graph) OutOffset(v int) int64 { return g.outOff[v] }

// OutDst returns the destination vertex of out-edge i.
func (g *Graph) OutDst(i int64) uint32 { return g.outDst[i] }

// OutPos returns the CSC slot that out-edge i writes to during SCATTER.
func (g *Graph) OutPos(i int64) int64 { return g.outPos[i] }

// OutDstRange returns the destinations of out-edges [lo, hi), aliasing
// internal storage; read-only.
func (g *Graph) OutDstRange(lo, hi int64) []uint32 { return g.outDst[lo:hi] }

// OutPosRange returns the CSC slots of out-edges [lo, hi), aliasing
// internal storage; read-only.
func (g *Graph) OutPosRange(lo, hi int64) []int64 { return g.outPos[lo:hi] }

// OutDegree returns the out-degree of vertex v.
func (g *Graph) OutDegree(v uint32) int32 { return g.outDeg[v] }

// InDegree returns the in-degree of vertex v.
func (g *Graph) InDegree(v uint32) int32 { return g.inDeg[v] }

// Edges reconstructs the edge list in CSC slot order. Intended for tests
// and tooling, not hot paths.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for v := 0; v < g.n; v++ {
		for s := g.inOff[v]; s < g.inOff[v+1]; s++ {
			out = append(out, Edge{Src: g.inSrc[s], Dst: uint32(v), Weight: g.inW[s]})
		}
	}
	return out
}

// String summarizes the graph for logging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{V=%d E=%d}", g.n, g.m)
}

// InSrcs returns the source-vertex array of the CSC slot range [lo, hi).
// The returned slice aliases the graph's internal storage: callers must
// treat it as read-only.
func (g *Graph) InSrcs(lo, hi int64) []uint32 { return g.inSrc[lo:hi] }

// InWeightsRange returns the weight array of the CSC slot range [lo, hi),
// aliasing internal storage; read-only.
func (g *Graph) InWeightsRange(lo, hi int64) []float32 { return g.inW[lo:hi] }
