// Components: connected components and community detection on a social
// graph, plus a demonstration of attaching the HARPv2 accelerator model
// to see the bus/PE behaviour the paper's Figs. 8-9 study.
//
// Run with: go run ./examples/components
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"graphabcd"
)

func main() {
	// A power-law social graph, symmetrized so components are undirected.
	base, err := graphabcd.RMAT(graphabcd.DefaultRMAT(12, 8, 99))
	if err != nil {
		log.Fatal(err)
	}
	var edges []graphabcd.Edge
	for _, e := range base.Edges() {
		edges = append(edges,
			graphabcd.Edge{Src: e.Src, Dst: e.Dst, Weight: 1},
			graphabcd.Edge{Src: e.Dst, Dst: e.Src, Weight: 1})
	}
	g, err := graphabcd.NewGraph(base.NumVertices(), edges)
	if err != nil {
		log.Fatal(err)
	}

	// Connected components with the accelerator model attached.
	sim, err := graphabcd.NewSimulator(graphabcd.DefaultHARPv2())
	if err != nil {
		log.Fatal(err)
	}
	cfg := graphabcd.DefaultConfig(64)
	cfg.Epsilon = 0
	cfg.Sim = sim
	rt := graphabcd.NewRuntime()
	cc := run(rt, graphabcd.NewJobSpec("cc", g, graphabcd.WithConfig(cfg)))
	sizes := map[uint64]int{}
	for _, l := range cc.Uint {
		sizes[l]++
	}
	var counts []int
	for _, c := range sizes {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	fmt.Printf("%d components; largest: %v\n", len(sizes), counts[:min(3, len(counts))])
	fmt.Printf("modeled accelerator: %.2f ms makespan, %.0f%% bus utilization, %d bytes streamed\n",
		cc.Stats.SimTimeNs/1e6, 100*sim.BusUtilization(), sim.BusBytes())

	// Community detection by label propagation inside the giant component.
	lpCfg := graphabcd.DefaultConfig(64)
	lpCfg.MaxEpochs = 30
	lp := run(rt, graphabcd.NewJobSpec("labelprop", g, graphabcd.WithConfig(lpCfg)))
	communities := map[uint64]int{}
	for _, l := range lp.Uint {
		communities[l]++
	}
	fmt.Printf("label propagation found %d communities in %.1f epochs\n",
		len(communities), lp.Stats.Epochs)
}

// run executes one job on the runtime and waits for its result.
func run(rt graphabcd.Runtime, spec graphabcd.JobSpec) *graphabcd.JobResult {
	ctx := context.Background()
	job, err := rt.Run(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	res, err := job.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	return res
}
