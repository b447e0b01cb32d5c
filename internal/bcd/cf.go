package bcd

import (
	"math"

	"graphabcd/internal/graph"
	"graphabcd/internal/word"
)

// CF is Collaborative Filtering by low-rank matrix factorization
// (Sec. III-A1): minimize sum over ratings (r_ij - x_i . x_j)^2 plus L2
// regularization. Vertex values are rank-K feature vectors; the bipartite
// graph carries each rating on both edge directions so users and items
// take symmetric gradient steps.
//
// The per-vertex update is the block gradient step of the paper,
// x_i <- x_i + lr * (mean over ratings of err_ij * x_j - lambda * x_i),
// with the gather normalized by degree so that the step size is stable
// across the skewed popularity distribution of real rating data.
type CF struct {
	// Rank is the factor dimension K. Zero value means 8.
	Rank int
	// LearnRate is the gradient step size. Zero value means 0.2.
	LearnRate float64
	// Lambda is the L2 regularization weight. Zero value means 0.01.
	Lambda float64
	// Seed perturbs the deterministic factor initialization.
	Seed uint64
}

func (c CF) rank() int {
	if c.Rank == 0 {
		return 8
	}
	return c.Rank
}

func (c CF) learnRate() float64 {
	if c.LearnRate == 0 {
		return 0.2
	}
	return c.LearnRate
}

func (c CF) lambda() float64 {
	if c.Lambda == 0 {
		return 0.01
	}
	return c.Lambda
}

// Name implements Program.
func (CF) Name() string { return "cf" }

// Codec implements Program.
func (c CF) Codec() word.Codec[[]float32] { return word.Vec32{Dim: c.rank()} }

// Init implements Program: a deterministic pseudo-random vector with
// entries in [-1/sqrt(K), 1/sqrt(K)], derived from (Seed, v, lane) so
// every engine and baseline starts from identical factors.
func (c CF) Init(v uint32, _ *graph.Graph) []float32 {
	k := c.rank()
	scale := 1 / math.Sqrt(float64(k))
	vec := make([]float32, k)
	state := c.Seed ^ (uint64(v)+1)*0x9e3779b97f4a7c15
	for lane := range vec {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		u := float64(z>>11)/float64(1<<53) - 0.5
		vec[lane] = float32(2 * u * scale)
	}
	return vec
}

// InitEdge implements Program.
func (c CF) InitEdge(src uint32, g *graph.Graph) []float32 { return c.Init(src, g) }

// NewAccum implements Program.
func (c CF) NewAccum() []float64 { return make([]float64, c.rank()) }

// ResetAccum implements Program.
func (CF) ResetAccum(acc *[]float64) {
	for i := range *acc {
		(*acc)[i] = 0
	}
}

// Gather implements Program: accumulate err * x_src, reading x_src's
// lanes straight from its Vec32 words.
func (CF) Gather(acc *[]float64, dst []float32, weights []float32, words []uint64) {
	a := *acc
	n := (len(dst) + 1) / 2 // words per vector
	for e, weight := range weights {
		src := words[e*n : (e+1)*n]
		dot := 0.0
		for k := range dst {
			dot += float64(dst[k]) * float64(lane(src, k))
		}
		err := float64(weight) - dot
		for k := range a {
			a[k] += err * float64(lane(src, k))
		}
	}
}

// lane decodes lane k of a Vec32 encoding: two lanes per word, low half
// first.
func lane(words []uint64, k int) float32 {
	return math.Float32frombits(uint32(words[k/2] >> (32 * (k % 2))))
}

// Apply implements Program.
func (c CF) Apply(_ uint32, old []float32, acc *[]float64, nEdges int64, _ *graph.Graph) []float32 {
	if nEdges == 0 {
		//abcdlint:ignore hotalloc,hotpath -- Apply must return a fresh slice: the engine still reads old to compute Delta
		return append([]float32(nil), old...)
	}
	lr, lam := c.learnRate(), c.lambda()
	inv := 1 / float64(nEdges)
	//abcdlint:ignore hotalloc,hotpath -- fresh per-vertex value; the engine still reads old to compute Delta
	out := make([]float32, len(old))
	for k := range old {
		out[k] = float32(float64(old[k]) + lr*((*acc)[k]*inv-lam*float64(old[k])))
	}
	return out
}

// ScatterValue implements Program.
func (CF) ScatterValue(_ uint32, val []float32, _ *graph.Graph) []float32 { return val }

// Delta implements Program: L1 norm of the factor change.
func (CF) Delta(old, new []float32) float64 {
	d := 0.0
	for k := range old {
		d += math.Abs(float64(new[k]) - float64(old[k]))
	}
	return d
}

// RMSE returns the root-mean-square rating error of the factors x over all
// edges of g — the paper's Fig. 5 convergence metric. Each rating appears
// on both edge directions, which leaves the RMSE unchanged.
func (CF) RMSE(g *graph.Graph, x [][]float32) float64 {
	if g.NumEdges() == 0 {
		return 0
	}
	sum := 0.0
	for v := 0; v < g.NumVertices(); v++ {
		xv := x[v]
		for s := g.InOffset(v); s < g.InOffset(v+1); s++ {
			xs := x[g.InSrc(s)]
			dot := 0.0
			for k := range xv {
				dot += float64(xv[k]) * float64(xs[k])
			}
			err := float64(g.InWeight(s)) - dot
			sum += err * err
		}
	}
	return math.Sqrt(sum / float64(g.NumEdges()))
}
