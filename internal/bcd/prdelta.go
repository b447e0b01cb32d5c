package bcd

import (
	"math"

	"graphabcd/internal/graph"
	"graphabcd/internal/word"
)

// OpBased marks an operation-based program (Sec. IV-A3): instead of
// copying the updated vertex *value* onto out-edges (state-based), SCATTER
// sends the value *change*, which destinations must accumulate exactly
// once. Correctness under asynchrony therefore requires read-modify-write
// edge slots: the engine atomically adds outgoing deltas into slots
// (AccumulateDelta) and atomically swaps slots to ZeroDelta when GATHER
// consumes them. This is precisely the extra synchronization the paper
// avoids by choosing state-based updates; the implementation exists to
// make that trade-off measurable (see the core engine's ablation tests).
//
// Operation-based programs are restricted to single-word codecs, where a
// compare-and-swap covers the whole value.
type OpBased[V, M any] interface {
	Program[V, M]
	// ZeroDelta is the slot value meaning "no pending update".
	ZeroDelta() V
	// AccumulateDelta merges a newly scattered delta into a slot's
	// pending value. Must be commutative and associative.
	AccumulateDelta(pending, delta V) V
	// OutDelta converts a vertex's value change into the delta scattered
	// to its out-edges (e.g. PageRank-Delta scales by damping/outdeg).
	OutDelta(v uint32, old, new V, g *graph.Graph) V
}

// PageRankDelta is the operation-based variant of PageRank the paper uses
// as its state-vs-operation example: edges carry rank *changes*, each
// vertex accumulates incoming changes into its rank, and scatters its own
// change scaled by damping/outdeg. The fixpoint is identical to PageRank.
type PageRankDelta struct {
	// Damping is the damping factor; zero value means 0.85.
	Damping float64
}

func (p PageRankDelta) damping() float64 {
	if p.Damping == 0 {
		return 0.85
	}
	return p.Damping
}

// Name implements Program.
func (PageRankDelta) Name() string { return "pagerank-delta" }

// Codec implements Program.
func (PageRankDelta) Codec() word.Codec[float64] { return word.F64{} }

// Init implements Program: ranks start at the teleport mass; incoming
// deltas accumulate the damped contributions on top.
func (p PageRankDelta) Init(_ uint32, g *graph.Graph) float64 {
	return (1 - p.damping()) / float64(g.NumVertices())
}

// InitEdge implements Program: the initial pending delta is the first
// iteration's contribution from the source's initial rank.
func (p PageRankDelta) InitEdge(src uint32, g *graph.Graph) float64 {
	return p.OutDelta(src, 0, p.Init(src, g), g)
}

// NewAccum implements Program.
func (PageRankDelta) NewAccum() float64 { return 0 }

// ResetAccum implements Program.
func (PageRankDelta) ResetAccum(acc *float64) { *acc = 0 }

// Gather implements Program: sum the consumed pending deltas.
func (PageRankDelta) Gather(acc *float64, _ float64, _ []float32, words []uint64) {
	*acc = sumF64(*acc, words)
}

// Apply implements Program: fold the accumulated incoming change into the
// rank.
func (PageRankDelta) Apply(_ uint32, old float64, acc *float64, _ int64, _ *graph.Graph) float64 {
	return old + *acc
}

// ScatterValue implements Program. Unused by the operation-based engine
// path (OutDelta is used instead) but required by the interface; returns
// the value unchanged so a state-based engine run is well-defined (and
// wrong — see the ablation test).
func (PageRankDelta) ScatterValue(_ uint32, val float64, _ *graph.Graph) float64 { return val }

// Delta implements Program.
func (PageRankDelta) Delta(old, new float64) float64 { return math.Abs(new - old) }

// ZeroDelta implements OpBased.
func (PageRankDelta) ZeroDelta() float64 { return 0 }

// AccumulateDelta implements OpBased.
func (PageRankDelta) AccumulateDelta(pending, delta float64) float64 { return pending + delta }

// OutDelta implements OpBased: damping * change / outdeg.
func (p PageRankDelta) OutDelta(v uint32, old, new float64, g *graph.Graph) float64 {
	if deg := g.OutDegree(v); deg > 0 {
		return p.damping() * (new - old) / float64(deg)
	}
	return 0
}

var _ OpBased[float64, float64] = PageRankDelta{}
