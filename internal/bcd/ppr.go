package bcd

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"graphabcd/internal/graph"
	"graphabcd/internal/word"
)

// PPR is personalized PageRank: the stationary point of
// x = d*P x + (1-d)*e where e is the teleport distribution concentrated
// uniformly on a seed set instead of spread over all of |V|. It is the
// point-query form of PageRank — "rank the graph from the perspective of
// these vertices" — and the workload the serving layer's seed queries
// dispatch. Everything except the teleport term is shared with PageRank:
// scatter images hold x_src/outdeg(src) and GATHER is the same streaming sum.
//
// Construct values with NewPPR so the seed-membership set is built once;
// the zero value is not runnable.
type PPR struct {
	// Damping is the damping factor d. Zero value means 0.85.
	Damping float64
	// Seeds is the personalization set, deduplicated and sorted.
	Seeds []uint32

	// seedSet answers membership in Apply without scanning Seeds. Built
	// once by NewPPR and shared read-only by every worker.
	seedSet map[uint32]struct{}
}

// NewPPR builds a personalized-PageRank program over the given seed set.
// Seeds are deduplicated; at least one is required.
func NewPPR(damping float64, seeds []uint32) (PPR, error) {
	if len(seeds) == 0 {
		return PPR{}, fmt.Errorf("bcd: ppr needs at least one seed vertex")
	}
	if damping < 0 || damping >= 1 {
		return PPR{}, fmt.Errorf("bcd: ppr damping %g outside [0, 1); 0 means the 0.85 default", damping)
	}
	set := make(map[uint32]struct{}, len(seeds))
	for _, s := range seeds {
		set[s] = struct{}{}
	}
	uniq := make([]uint32, 0, len(set))
	for s := range set {
		uniq = append(uniq, s)
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
	return PPR{Damping: damping, Seeds: uniq, seedSet: set}, nil
}

func (p PPR) damping() float64 {
	if p.Damping == 0 {
		return 0.85
	}
	return p.Damping
}

// teleport returns e(v): 1/|S| on seeds, 0 elsewhere.
func (p PPR) teleport(v uint32) float64 {
	if _, ok := p.seedSet[v]; ok {
		return 1 / float64(len(p.Seeds))
	}
	return 0
}

// Name implements Program. The seed set and damping are folded into the
// name so two PPR runs with different personalizations never share a
// checkpoint identity (checkpoint.ConfigHash hashes the program name).
func (p PPR) Name() string {
	h := fnv.New64a()
	_, _ = fmt.Fprintf(h, "d=%g", p.damping())
	for _, s := range p.Seeds {
		_, _ = fmt.Fprintf(h, ",%d", s)
	}
	return fmt.Sprintf("ppr-%016x", h.Sum64())
}

// Codec implements Program.
func (PPR) Codec() word.Codec[float64] { return word.F64{} }

// Init implements Program: start at the teleport distribution.
func (p PPR) Init(v uint32, _ *graph.Graph) float64 { return p.teleport(v) }

// InitEdge implements Program.
func (p PPR) InitEdge(src uint32, g *graph.Graph) float64 {
	return p.ScatterValue(src, p.Init(src, g), g)
}

// NewAccum implements Program.
func (PPR) NewAccum() float64 { return 0 }

// ResetAccum implements Program.
func (PPR) ResetAccum(acc *float64) { *acc = 0 }

// Gather implements Program: sum of cached src/outdeg contributions.
func (PPR) Gather(acc *float64, _ float64, _ []float32, words []uint64) {
	*acc = sumF64(*acc, words)
}

// Apply implements Program.
func (p PPR) Apply(v uint32, _ float64, acc *float64, _ int64, _ *graph.Graph) float64 {
	return (1-p.damping())*p.teleport(v) + p.damping()**acc
}

// ScatterValue implements Program: out-edges carry val / outdeg.
func (PPR) ScatterValue(v uint32, val float64, g *graph.Graph) float64 {
	if deg := g.OutDegree(v); deg > 0 {
		return val / float64(deg)
	}
	return val // dangling vertex: no out-edges exist, value unused
}

// Delta implements Program.
func (PPR) Delta(old, new float64) float64 { return math.Abs(new - old) }

// L1Residual returns sum_v |x_v - nextIteration(x)_v| for a full Jacobi
// sweep, the personalized analogue of PageRank.L1Residual.
func (p PPR) L1Residual(g *graph.Graph, x []float64) float64 {
	d := p.damping()
	n := g.NumVertices()
	res := 0.0
	for v := 0; v < n; v++ {
		sum := 0.0
		for s := g.InOffset(v); s < g.InOffset(v+1); s++ {
			src := g.InSrc(s)
			sum += x[src] / float64(g.OutDegree(src))
		}
		next := (1-d)*p.teleport(uint32(v)) + d*sum
		res += math.Abs(next - x[v])
	}
	return res
}
