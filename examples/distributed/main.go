// Distributed: scale PageRank out across a simulated four-node cluster —
// the deployment the paper's asynchronous, barrierless design targets.
// Each node owns a quarter of the vertex blocks and runs its own workers;
// state-based updates cross nodes as batched messages, and the run
// converges to the same ranks. (To watch it tolerate network delay, loss
// and duplication, use the CLI: graphabcd -nodes 4 -chaos-delay 500us.)
//
// Run with: go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"graphabcd"
)

func main() {
	g, err := graphabcd.RMAT(graphabcd.DefaultRMAT(12, 8, 2026))
	if err != nil {
		log.Fatal(err)
	}

	// Single-node reference.
	rt := graphabcd.NewRuntime()
	single := run(rt, graphabcd.NewJobSpec("pagerank", g, graphabcd.WithClusterConfig(graphabcd.ClusterConfig{
		Nodes: 1, BlockSize: 64, WorkersPerNode: 4, Epsilon: 1e-12,
	})))

	// Four nodes exchanging batches of up to 128 slot updates.
	multi := run(rt, graphabcd.NewJobSpec("pagerank", g, graphabcd.WithClusterConfig(graphabcd.ClusterConfig{
		Nodes: 4, BlockSize: 64, WorkersPerNode: 1, Epsilon: 1e-12, BatchSize: 128,
	})))

	worst := 0.0
	for v := range single.Float {
		if d := math.Abs(single.Float[v] - multi.Float[v]); d > worst {
			worst = d
		}
	}
	fmt.Printf("graph: %s\n", g)
	fmt.Printf("single node : %.1f epochs, %d local writes\n",
		single.Stats.Epochs, single.Cluster.LocalWrites)
	fmt.Printf("four nodes  : %.1f epochs, %d messages in %d batches (%.0f%% of writes remote)\n",
		multi.Stats.Epochs, multi.Cluster.MessagesSent, multi.Cluster.BatchesSent,
		100*float64(multi.Cluster.MessagesSent)/float64(multi.Stats.ScatterWrites))
	fmt.Printf("max rank disagreement: %.2g (asynchronous BCD: message timing never changes the fixpoint)\n", worst)
}

// run executes one job on the runtime (the distributed statistics land in
// JobResult.Cluster) and waits for its result.
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
