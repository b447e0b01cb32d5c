// Shortestpath: single-source shortest paths on a weighted road-like grid
// with Gauss-Southwell priority scheduling — the Δ-stepping-flavoured
// configuration the paper recommends for SSSP — and a comparison of the
// work done under priority vs cyclic block selection.
//
// Run with: go run ./examples/shortestpath
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"graphabcd"
)

func main() {
	// A 100x100 road grid with integer travel times 1-9.
	const rows, cols = 100, 100
	g, err := graphabcd.Grid(rows, cols, 9, 7)
	if err != nil {
		log.Fatal(err)
	}
	source := uint32(0) // top-left corner

	rt, ctx := graphabcd.NewRuntime(), context.Background()
	run := func(policy graphabcd.Policy) *graphabcd.JobResult {
		cfg := graphabcd.DefaultConfig(64)
		cfg.Policy = policy
		cfg.Epsilon = 0 // monotone relaxation converges exactly
		job, err := rt.Run(ctx, graphabcd.NewJobSpec("sssp", g, graphabcd.WithSource(source), graphabcd.WithConfig(cfg)))
		if err != nil {
			log.Fatal(err)
		}
		res, err := job.Wait(ctx)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	prio := run(graphabcd.Priority)
	cyc := run(graphabcd.Cyclic)

	// Both must agree exactly: asynchronous relaxation is monotone.
	for v := range prio.Float {
		if prio.Float[v] != cyc.Float[v] {
			log.Fatalf("policy changed the answer at vertex %d", v)
		}
	}

	corner := uint32(rows*cols - 1)
	fmt.Printf("distance corner-to-corner: %.0f\n", prio.Float[corner])
	fmt.Printf("priority scheduling: %.1f epochs, %d edges relaxed\n",
		prio.Stats.Epochs, prio.Stats.EdgesTraversed)
	fmt.Printf("cyclic   scheduling: %.1f epochs, %d edges relaxed\n",
		cyc.Stats.Epochs, cyc.Stats.EdgesTraversed)

	// Farthest reachable vertex.
	far, farD := uint32(0), 0.0
	for v, d := range prio.Float {
		if !math.IsInf(d, 1) && d > farD {
			far, farD = uint32(v), d
		}
	}
	fmt.Printf("farthest vertex: %d (row %d, col %d) at distance %.0f\n",
		far, far/cols, far%cols, farD)
}
