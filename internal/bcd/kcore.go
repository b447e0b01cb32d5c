package bcd

import (
	"sort"

	"graphabcd/internal/graph"
	"graphabcd/internal/word"
)

// KCore computes k-core decomposition (each vertex's coreness) by the
// distributed h-index fixpoint of Montresor et al.: every vertex starts at
// its degree and repeatedly lowers its estimate to the h-index of its
// neighbours' estimates (the largest h such that at least h neighbours
// claim estimate >= h). Estimates only decrease, so — like SSSP — the
// update is monotone and converges under arbitrary asynchrony, making it
// a natural extra workload for the GraphABCD engine beyond the paper's
// six algorithms.
//
// Run it on a symmetric graph (both edge directions present); coreness is
// an undirected notion.
type KCore struct{}

// KCoreAccum collects the neighbour estimates of one vertex.
type KCoreAccum struct{ ests []uint64 }

// Name implements Program.
func (KCore) Name() string { return "kcore" }

// Codec implements Program.
func (KCore) Codec() word.Codec[uint64] { return word.U64{} }

// Init implements Program: the in-degree (== degree on a symmetric graph)
// upper-bounds the coreness.
func (KCore) Init(v uint32, g *graph.Graph) uint64 { return uint64(g.InDegree(v)) }

// InitEdge implements Program.
func (k KCore) InitEdge(src uint32, g *graph.Graph) uint64 { return k.Init(src, g) }

// NewAccum implements Program.
func (KCore) NewAccum() KCoreAccum { return KCoreAccum{ests: make([]uint64, 0, 64)} }

// ResetAccum implements Program.
func (KCore) ResetAccum(acc *KCoreAccum) { acc.ests = acc.ests[:0] }

// Gather implements Program.
func (KCore) Gather(acc *KCoreAccum, _ uint64, _ []float32, words []uint64) {
	acc.ests = append(acc.ests, words...) //abcdlint:ignore hotpath -- amortized: ResetAccum keeps the capacity across vertices
}

// Apply implements Program: min(old, h-index of the gathered estimates).
func (KCore) Apply(_ uint32, old uint64, acc *KCoreAccum, nEdges int64, _ *graph.Graph) uint64 {
	if nEdges == 0 {
		return 0 // an isolated vertex has coreness 0
	}
	ests := acc.ests
	sort.Slice(ests, func(a, b int) bool { return ests[a] > ests[b] })
	h := uint64(0)
	for i, e := range ests {
		if e >= uint64(i+1) {
			h = uint64(i + 1)
		} else {
			break
		}
	}
	if h < old {
		return h
	}
	return old
}

// ScatterValue implements Program.
func (KCore) ScatterValue(_ uint32, val uint64, _ *graph.Graph) uint64 { return val }

// Delta implements Program: estimates only decrease; each drop is mass.
func (KCore) Delta(old, new uint64) float64 {
	if new >= old {
		return 0
	}
	return float64(old - new)
}

// RefKCore computes exact core numbers by peeling (repeatedly removing the
// minimum-degree vertex), the standard O(|E|) reference algorithm. The
// graph must be symmetric.
func RefKCore(g *graph.Graph) []uint64 {
	n := g.NumVertices()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = int(g.InDegree(uint32(v)))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket sort vertices by degree for linear peeling.
	buckets := make([][]uint32, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], uint32(v))
	}
	core := make([]uint64, n)
	removed := make([]bool, n)
	k := 0
	for d := 0; d <= maxDeg; d++ {
		queue := buckets[d]
		buckets[d] = nil
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if removed[v] || deg[v] > d {
				// Stale entry: the vertex was re-bucketed at a lower
				// degree or already peeled.
				if !removed[v] && deg[v] > d {
					buckets[deg[v]] = append(buckets[deg[v]], v)
				}
				continue
			}
			if deg[v] > k {
				k = deg[v]
			}
			core[v] = uint64(k)
			removed[v] = true
			for i := g.OutOffset(int(v)); i < g.OutOffset(int(v)+1); i++ {
				u := g.OutDst(i)
				if !removed[u] {
					deg[u]--
					if deg[u] <= d {
						queue = append(queue, u)
					} else {
						buckets[deg[u]] = append(buckets[deg[u]], u)
					}
				}
			}
		}
	}
	return core
}
