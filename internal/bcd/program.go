// Package bcd defines the Block Coordinate Descent view of iterative graph
// algorithms (Sec. III of the paper) and implements the paper's algorithm
// library: PageRank, SSSP, BFS, Connected Components, Label Propagation and
// Collaborative Filtering.
//
// Each algorithm is a Program in pull-push GAS form (Fig. 3c): the GATHER
// stage folds the cached source values stored on a vertex's in-edges into
// an accumulator, a run of raw cache words per call, APPLY produces the
// new vertex value, and SCATTER copies the (possibly re-scaled) new value
// onto the vertex's out-edge slots. Programs carry no mutable state of
// their own, so one Program value can be shared by every engine worker.
package bcd

import (
	"graphabcd/internal/graph"
	"graphabcd/internal/word"
)

// Program defines one iterative graph algorithm over vertex values of type
// V with gather accumulators of type M. Implementations must be stateless
// (safe for concurrent use by many workers).
//
// Value ownership: the engine passes V arguments as scratch buffers that
// are only valid for the duration of the call; implementations must not
// retain them. Apply and ScatterValue may return freshly allocated values.
type Program[V, M any] interface {
	// Name identifies the algorithm in logs and reports.
	Name() string

	// Codec describes how vertex values (and the per-edge cached source
	// values, which share the type) are stored in atomic word arrays.
	Codec() word.Codec[V]

	// Init returns the initial value of vertex v.
	Init(v uint32, g *graph.Graph) V

	// InitEdge returns the initial cached value of the in-edge slots whose
	// source is src — normally the scatter image of Init(src). It must be
	// a function of src alone: the kernel evaluates it once per source
	// vertex and copies the result into every out-edge slot of src.
	InitEdge(src uint32, g *graph.Graph) V

	// NewAccum allocates a gather accumulator initialized to the identity.
	NewAccum() M

	// ResetAccum restores *acc to the gather identity so the engine can
	// reuse one accumulator per worker.
	ResetAccum(acc *M)

	// Gather folds a run of the destination vertex's in-edges into the
	// accumulator, in CSC slot order: edge e has static weight
	// weights[e] and its cached source value encoded in
	// words[e*W:(e+1)*W], W = Codec().Words(). dst is the current value
	// of the destination vertex. The engine hands a vertex's in-edges
	// over in one or more consecutive runs between ResetAccum and Apply,
	// so the fold must give the same bits however its run is split; a
	// per-edge loop that decodes in place does. words is scratch valid
	// for the call only.
	Gather(acc *M, dst V, weights []float32, words []uint64)

	// Apply computes the new value of vertex v from its old value and the
	// gathered accumulator. nEdges is the number of in-edges folded (0
	// means acc is still the identity).
	Apply(v uint32, old V, acc *M, nEdges int64, g *graph.Graph) V

	// ScatterValue converts a vertex value into the cached value written
	// to the vertex's out-edge slots (e.g. PageRank scales by 1/out-degree).
	ScatterValue(v uint32, val V, g *graph.Graph) V

	// Delta returns the scalar magnitude of a value change, the gradient
	// estimate driving the active list and Gauss-Southwell priorities
	// (Sec. IV-B). It must be 0 if and only if the update is a no-op.
	Delta(old, new V) float64
}
