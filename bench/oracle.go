package main

import (
	"container/heap"
	"fmt"
	"math"

	"graphabcd"
)

// The oracles are the harness's own sequential implementations, sharing
// no code with any engine in the repository: a Jacobi power iteration, a
// binary-heap Dijkstra and a queue BFS. They read the graph only through
// its public accessors. They run in set-up or after the measured window,
// never inside a timed span.

const pagerankDamping = 0.85

// pagerankOracle iterates x <- (1-d)/n + d * sum_in x_src/outdeg(src) to
// an L1 step below 1e-12 — three orders tighter than the engine's default
// activation threshold, so the comparison tolerance is the engine's error
// alone. Dangling mass is not redistributed, matching the program's
// formulation of PageRank (bcd.PageRank).
func pagerankOracle(g *graphabcd.Graph) []float64 {
	n := g.NumVertices()
	x, next := make([]float64, n), make([]float64, n)
	for v := range x {
		x[v] = 1 / float64(n)
	}
	base := (1 - pagerankDamping) / float64(n)
	for it := 0; it < 500; it++ {
		step := 0.0
		for v := 0; v < n; v++ {
			s := 0.0
			for e := g.InOffset(v); e < g.InOffset(v+1); e++ {
				src := g.InSrc(e)
				s += x[src] / float64(g.OutDegree(src))
			}
			next[v] = base + pagerankDamping*s
			step += math.Abs(next[v] - x[v])
		}
		x, next = next, x
		if step < 1e-12 {
			break
		}
	}
	return x
}

// pagerankOracleOf loads the graph at path only for the oracle's use.
func pagerankOracleOf(path string) ([]float64, error) {
	g, err := graphabcd.Load(path)
	if err != nil {
		return nil, err
	}
	return pagerankOracle(g), nil
}

// pagerankTolerance is the accepted L1 distance between an engine's ranks
// and the oracle's: 1e-6 per vertex, the issue's figure. The engine stops
// propagating a vertex's change once it is below Epsilon (1e-9), and the
// unpropagated remainders add up over in-edges and the 1/(1-d) feedback to
// ~5e-8 per vertex on the benchmark's graphs (L1 0.003 at 65k vertices),
// a twentieth of the tolerance; the uniform start vector is at L1 ~1.
func pagerankTolerance(n int) float64 { return 1e-6 * float64(n) }

func checkPagerank(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("pagerank: %d values, want %d", len(got), len(want))
	}
	l1 := 0.0
	for i := range got {
		d := math.Abs(got[i] - want[i])
		if math.IsNaN(d) {
			return fmt.Errorf("pagerank: vertex %d is NaN", i)
		}
		l1 += d
	}
	if tol := pagerankTolerance(len(want)); l1 > tol {
		return fmt.Errorf("pagerank: L1 distance to oracle %.3g exceeds %.3g", l1, tol)
	}
	return nil
}

type heapItem struct {
	v uint32
	d float64
}
type distHeap []heapItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(heapItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// dijkstraOracle returns exact shortest-path distances from source;
// unreachable vertices hold +Inf. Weights are small integers stored as
// float32, so every path sum is exact in float64 and the engine's answer
// must match bit for bit.
func dijkstraOracle(g *graphabcd.Graph, source uint32) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[source] = 0
	pq := &distHeap{{v: source}}
	for pq.Len() > 0 {
		top := heap.Pop(pq).(heapItem)
		if top.d > dist[top.v] {
			continue
		}
		for e := g.OutOffset(int(top.v)); e < g.OutOffset(int(top.v)+1); e++ {
			u := g.OutDst(e)
			if nd := top.d + float64(g.InWeight(g.OutPos(e))); nd < dist[u] {
				dist[u] = nd
				heap.Push(pq, heapItem{v: u, d: nd})
			}
		}
	}
	return dist
}

func checkExactFloat(name string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: vertex %d = %v, oracle says %v", name, i, got[i], want[i])
		}
	}
	return nil
}

// bfsOracle returns hop counts from source; unreachable vertices hold
// graphabcd.Unreached.
func bfsOracle(g *graphabcd.Graph, source uint32) []uint64 {
	n := g.NumVertices()
	level := make([]uint64, n)
	for v := range level {
		level[v] = graphabcd.Unreached
	}
	level[source] = 0
	queue := []uint32{source}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for e := g.OutOffset(int(v)); e < g.OutOffset(int(v)+1); e++ {
			if u := g.OutDst(e); level[u] == graphabcd.Unreached {
				level[u] = level[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return level
}

func checkExactUint(name string, got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: vertex %d = %d, oracle says %d", name, i, got[i], want[i])
		}
	}
	return nil
}
