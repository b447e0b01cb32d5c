// Custom: implement a new algorithm against the public Program interface —
// personalized PageRank (random walks teleport back to a seed set instead
// of uniformly), the standard recommendation/trust primitive — and run it
// on the asynchronous engine with a convergence-curve hook.
//
// Run with: go run ./examples/custom
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"graphabcd"
)

// PersonalizedPR is PageRank whose teleport mass concentrates on a seed
// set: x_v = (1-d)*seed_v + d * sum over in-edges of x_src/outdeg(src).
type PersonalizedPR struct {
	Damping float64
	Seeds   map[uint32]float64 // teleport distribution, sums to 1
}

func (p PersonalizedPR) Name() string                    { return "personalized-pagerank" }
func (p PersonalizedPR) Codec() graphabcd.Codec[float64] { return graphabcd.F64Codec{} }
func (p PersonalizedPR) NewAccum() float64               { return 0 }
func (p PersonalizedPR) ResetAccum(acc *float64)         { *acc = 0 }
func (p PersonalizedPR) Delta(old, new float64) float64  { return math.Abs(new - old) }

func (p PersonalizedPR) Init(v uint32, _ *graphabcd.Graph) float64 {
	return (1 - p.Damping) * p.Seeds[v]
}

func (p PersonalizedPR) InitEdge(src uint32, g *graphabcd.Graph) float64 {
	return p.ScatterValue(src, p.Init(src, g), g)
}

// Gather folds a run of in-edges: words holds each edge's cached
// src/outdeg, encoded by Codec (F64Codec: the float64's bits).
func (p PersonalizedPR) Gather(acc *float64, _ float64, _ []float32, words []uint64) {
	for _, w := range words {
		*acc += math.Float64frombits(w)
	}
}

func (p PersonalizedPR) Apply(v uint32, _ float64, acc *float64, _ int64, _ *graphabcd.Graph) float64 {
	return (1-p.Damping)*p.Seeds[v] + p.Damping**acc
}

func (p PersonalizedPR) ScatterValue(v uint32, val float64, g *graphabcd.Graph) float64 {
	if deg := g.OutDegree(v); deg > 0 {
		return val / float64(deg)
	}
	return val
}

func main() {
	// A citation-style graph; we ask which vertices are most relevant to
	// the neighbourhood of two seed vertices.
	g, err := graphabcd.RMAT(graphabcd.DefaultRMAT(11, 8, 321))
	if err != nil {
		log.Fatal(err)
	}
	prog := PersonalizedPR{
		Damping: 0.85,
		Seeds:   map[uint32]float64{17: 0.5, 412: 0.5},
	}

	cfg := graphabcd.DefaultConfig(64)
	cfg.Policy = graphabcd.Priority
	cfg.Epsilon = 1e-12
	cfg.OnEpoch = func(epoch int) {
		if epoch%8 == 0 {
			fmt.Printf("  ...epoch %d\n", epoch)
		}
	}

	res, err := graphabcd.Run[float64, float64](g, prog, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged in %.1f epochs over %s\n", res.Stats.Epochs, g)

	type scored struct {
		v uint32
		x float64
	}
	all := make([]scored, 0, len(res.Values))
	for v, x := range res.Values {
		all = append(all, scored{uint32(v), x})
	}
	sort.Slice(all, func(a, b int) bool { return all[a].x > all[b].x })
	fmt.Println("most relevant to the seed set:")
	for i := 0; i < 8 && i < len(all); i++ {
		fmt.Printf("  vertex %-6d score %.5f\n", all[i].v, all[i].x)
	}
}
