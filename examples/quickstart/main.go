// Quickstart: build a small web-link graph, run PageRank on the
// asynchronous GraphABCD engine, and print the most important pages.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"graphabcd"
)

func main() {
	// A tiny "web": pages 0-6 linking to each other. Page 3 is a hub that
	// everything points at; page 6 dangles.
	edges := []graphabcd.Edge{
		{Src: 0, Dst: 3, Weight: 1}, {Src: 1, Dst: 3, Weight: 1},
		{Src: 2, Dst: 3, Weight: 1}, {Src: 3, Dst: 4, Weight: 1},
		{Src: 4, Dst: 0, Weight: 1}, {Src: 4, Dst: 5, Weight: 1},
		{Src: 5, Dst: 3, Weight: 1}, {Src: 5, Dst: 6, Weight: 1},
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1},
	}
	g, err := graphabcd.NewGraph(7, edges)
	if err != nil {
		log.Fatal(err)
	}

	// The default configuration is the paper's asynchronous barrierless
	// engine with cyclic block selection; switch Policy to
	// graphabcd.Priority for Gauss-Southwell scheduling.
	cfg := graphabcd.DefaultConfig(2 /* vertices per BCD block */)
	cfg.Policy = graphabcd.Priority

	// A Runtime runs JobSpecs: the algorithm by registry name, the graph,
	// and options. The Handle also streams progress events and cancels.
	ctx := context.Background()
	job, err := graphabcd.NewRuntime().Run(ctx, graphabcd.NewJobSpec("pagerank", g, graphabcd.WithConfig(cfg)))
	if err != nil {
		log.Fatal(err)
	}
	res, err := job.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}

	type page struct {
		id   int
		rank float64
	}
	pages := make([]page, len(res.Float))
	for v, r := range res.Float {
		pages[v] = page{v, r}
	}
	sort.Slice(pages, func(a, b int) bool { return pages[a].rank > pages[b].rank })

	fmt.Printf("converged in %.1f epoch-equivalents (%d block updates)\n",
		res.Stats.Epochs, res.Stats.BlockUpdates)
	for _, p := range pages {
		fmt.Printf("page %d: rank %.4f\n", p.id, p.rank)
	}
}
