// Recommender: train a collaborative-filtering model on a synthetic
// MovieLens-like rating graph (the workload of the paper's Fig. 5) and
// produce recommendations for one user.
//
// Run with: go run ./examples/recommender
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"graphabcd"
)

func main() {
	// 400 users rate 120 movies; ratings follow a planted rank-8 taste
	// model, so a rank-8 factorization can fit them well.
	rg, err := graphabcd.Rating(graphabcd.DefaultRating(400, 120, 12000, 2024))
	if err != nil {
		log.Fatal(err)
	}
	params := graphabcd.CF{Rank: 8, LearnRate: 0.3, Lambda: 0.01, Seed: 1}

	cfg := graphabcd.DefaultConfig(32)
	cfg.Policy = graphabcd.Priority
	cfg.MaxEpochs = 30 // CF iterates until its budget

	ctx := context.Background()
	job, err := graphabcd.NewRuntime().Run(ctx, graphabcd.NewJobSpec("cf", rg.Graph,
		graphabcd.WithCFParams(params), graphabcd.WithConfig(cfg)))
	if err != nil {
		log.Fatal(err)
	}
	res, err := job.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	factors := res.Vectors // one factor vector per user and movie vertex
	fmt.Printf("trained %d factors in %.1f epochs, RMSE %.3f\n",
		len(factors), res.Stats.Epochs, params.RMSE(rg.Graph, factors))

	// Recommend for user 0: score every movie by the dot product of
	// factor vectors, skipping movies the user already rated.
	user := uint32(0)
	rated := map[uint32]bool{}
	g := rg.Graph
	for i := g.OutOffset(int(user)); i < g.OutOffset(int(user)+1); i++ {
		rated[g.OutDst(i)] = true
	}
	type rec struct {
		movie uint32
		score float64
	}
	var recs []rec
	for item := 0; item < rg.Items; item++ {
		mv := rg.ItemVertex(item)
		if rated[mv] {
			continue
		}
		score := dot(factors[user], factors[mv])
		recs = append(recs, rec{mv, score})
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].score > recs[b].score })
	fmt.Printf("user %d rated %d movies; top recommendations:\n", user, len(rated))
	for i := 0; i < 5 && i < len(recs); i++ {
		fmt.Printf("  movie %d: predicted rating %.2f\n", recs[i].movie-uint32(rg.Users), recs[i].score)
	}
}

func dot(a, b []float32) float64 {
	s := 0.0
	for k := range a {
		s += float64(a[k]) * float64(b[k])
	}
	return s
}
