package bcd

import (
	"graphabcd/internal/graph"
	"graphabcd/internal/word"
)

// LabelProp is weighted majority label propagation for community
// detection, one of the graph-ML workloads the GAS model covers (Sec.
// II-A). Each vertex adopts the label with the largest total in-edge
// weight among its neighbours' cached labels (ties break toward the
// smaller label; an unconnected vertex keeps its own label).
//
// Unlike the monotone traversal programs, label propagation can oscillate
// under synchronous execution on bipartite-like structures; run it with a
// MaxEpochs bound. Asynchronous execution typically breaks the symmetry
// and converges — which makes it a useful asynchrony stress test.
type LabelProp struct{}

// LPAccum collects weighted label votes for one vertex.
type LPAccum struct {
	votes map[uint64]float64
}

// Name implements Program.
func (LabelProp) Name() string { return "labelprop" }

// Codec implements Program.
func (LabelProp) Codec() word.Codec[uint64] { return word.U64{} }

// Init implements Program: every vertex starts with its own label.
func (LabelProp) Init(v uint32, _ *graph.Graph) uint64 { return uint64(v) }

// InitEdge implements Program.
func (l LabelProp) InitEdge(src uint32, g *graph.Graph) uint64 { return l.Init(src, g) }

// NewAccum implements Program.
func (LabelProp) NewAccum() LPAccum { return LPAccum{votes: make(map[uint64]float64)} }

// ResetAccum implements Program.
func (LabelProp) ResetAccum(acc *LPAccum) { clear(acc.votes) }

// Gather implements Program.
func (LabelProp) Gather(acc *LPAccum, _ uint64, weights []float32, words []uint64) {
	for e, w := range weights {
		acc.votes[words[e]] += float64(w)
	}
}

// Apply implements Program.
func (LabelProp) Apply(_ uint32, old uint64, acc *LPAccum, nEdges int64, _ *graph.Graph) uint64 {
	if nEdges == 0 || len(acc.votes) == 0 {
		return old
	}
	best, bestW := old, -1.0
	for label, w := range acc.votes {
		if w > bestW || (w == bestW && label < best) {
			best, bestW = label, w
		}
	}
	return best
}

// ScatterValue implements Program.
func (LabelProp) ScatterValue(_ uint32, val uint64, _ *graph.Graph) uint64 { return val }

// Delta implements Program.
func (LabelProp) Delta(old, new uint64) float64 {
	if old != new {
		return 1
	}
	return 0
}
