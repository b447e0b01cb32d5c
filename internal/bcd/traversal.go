package bcd

import (
	"math"

	"graphabcd/internal/graph"
	"graphabcd/internal/word"
)

// Unreached marks a vertex not yet touched by BFS / CC label propagation.
const Unreached = math.MaxUint64

// BFS computes breadth-first levels from a source vertex as min-plus BCD
// over unit weights. Like SSSP, the update is monotone, so it tolerates
// arbitrary asynchrony.
type BFS struct {
	// Source is the root vertex (level 0).
	Source uint32
}

// Name implements Program.
func (BFS) Name() string { return "bfs" }

// Codec implements Program.
func (BFS) Codec() word.Codec[uint64] { return word.U64{} }

// Init implements Program.
func (b BFS) Init(v uint32, _ *graph.Graph) uint64 {
	if v == b.Source {
		return 0
	}
	return Unreached
}

// InitEdge implements Program.
func (b BFS) InitEdge(src uint32, g *graph.Graph) uint64 { return b.Init(src, g) }

// NewAccum implements Program.
func (BFS) NewAccum() uint64 { return Unreached }

// ResetAccum implements Program.
func (BFS) ResetAccum(acc *uint64) { *acc = Unreached }

// Gather implements Program.
func (BFS) Gather(acc *uint64, _ uint64, _ []float32, words []uint64) {
	for _, src := range words {
		if src != Unreached && src+1 < *acc {
			*acc = src + 1
		}
	}
}

// Apply implements Program.
func (BFS) Apply(_ uint32, old uint64, acc *uint64, _ int64, _ *graph.Graph) uint64 {
	if *acc < old {
		return *acc
	}
	return old
}

// ScatterValue implements Program.
func (BFS) ScatterValue(_ uint32, val uint64, _ *graph.Graph) uint64 { return val }

// Delta implements Program: shallower levels carry more gradient mass so
// the priority scheduler expands the frontier closest to the root first.
func (BFS) Delta(old, new uint64) float64 {
	if new >= old {
		return 0
	}
	return 1 / (1 + float64(new))
}

// CC computes connected components by minimum-label propagation. On a
// directed graph it yields the components of the *directed reachability*
// closure along edges; build a symmetric graph (both edge directions) for
// undirected connected components.
type CC struct{}

// Name implements Program.
func (CC) Name() string { return "cc" }

// Codec implements Program.
func (CC) Codec() word.Codec[uint64] { return word.U64{} }

// Init implements Program: every vertex starts in its own component.
func (CC) Init(v uint32, _ *graph.Graph) uint64 { return uint64(v) }

// InitEdge implements Program.
func (c CC) InitEdge(src uint32, g *graph.Graph) uint64 { return c.Init(src, g) }

// NewAccum implements Program.
func (CC) NewAccum() uint64 { return Unreached }

// ResetAccum implements Program.
func (CC) ResetAccum(acc *uint64) { *acc = Unreached }

// Gather implements Program.
func (CC) Gather(acc *uint64, _ uint64, _ []float32, words []uint64) {
	for _, src := range words {
		if src < *acc {
			*acc = src
		}
	}
}

// Apply implements Program.
func (CC) Apply(_ uint32, old uint64, acc *uint64, _ int64, _ *graph.Graph) uint64 {
	if *acc < old {
		return *acc
	}
	return old
}

// ScatterValue implements Program.
func (CC) ScatterValue(_ uint32, val uint64, _ *graph.Graph) uint64 { return val }

// Delta implements Program: any label decrease is one unit of mass.
func (CC) Delta(old, new uint64) float64 {
	if new < old {
		return 1
	}
	return 0
}
