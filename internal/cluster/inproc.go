package cluster

import (
	"context"
	"sync"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/core"
	"graphabcd/internal/graph"
	"graphabcd/internal/telemetry"
)

// inprocProbeEvery is the in-process coordinator's probe cadence: a
// round over direct lanes is a few atomic loads per node.
const inprocProbeEvery = 20 * time.Microsecond

// clusterRun is the in-process runtime: every Node of the cluster over
// one Shared, ended by the coordinator over one direct lane per node,
// plus what only exists when all nodes live in one address space —
// failover and the stall watchdog.
type clusterRun[V, M any] struct {
	*Shared[V, M]
	nodes []*Node[V, M]

	// failMu serializes FailNode calls and the stop at declared
	// quiescence: a failover either began before the coordinator's last
	// probe round or is refused.
	failMu sync.Mutex
	sh0    *telemetry.Shard // watchdog and failover counters
}

// quiescedHook, when set, sees every in-process run at the moment its
// coordinator declares quiescence, before it stops. Tests install the
// exact shared-memory quiescence check here.
var quiescedHook func(run any)

func newCluster[V, M any](g *graph.Graph, prog bcd.Program[V, M], cfg Config) (*clusterRun[V, M], error) {
	part, err := graph.NewPartition(g, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	// More nodes than blocks would leave zero-block nodes spinning workers
	// against a permanently empty scheduler; clamp so every node owns at
	// least one block.
	cfg.Nodes = min(cfg.Nodes, part.NumBlocks())
	if cfg.Transport == nil {
		cfg.Transport = &directTransport{}
	}
	ids := make([]int, cfg.Nodes)
	for i := range ids {
		ids[i] = i
	}
	nodes, err := NewNodes(g, prog, cfg, ids)
	if err != nil {
		return nil, err
	}
	c := &clusterRun[V, M]{
		Shared: nodes[0].Shared,
		nodes:  nodes,
	}
	c.sh0 = &c.shards[0]
	c.Tel.RegisterGauge("live_nodes", func() float64 { return float64(c.liveNodes()) })
	c.Tel.RegisterGauge("inflight_batches", func() float64 {
		_, inflight := c.batchTotals()
		return float64(inflight)
	})
	return c, nil
}

// batchTotals sums the nodes' created-batch and in-flight counters.
func (c *clusterRun[V, M]) batchTotals() (sent uint64, inflight int64) {
	for _, n := range c.nodes {
		sent += n.sent.Load()
		inflight += n.inflight.Load()
	}
	return sent, inflight
}

// coordinator is the run's coordinator: one direct lane per node.
func (c *clusterRun[V, M]) coordinator() *Coordinator {
	lanes := make([]Lane, len(c.nodes))
	for i, n := range c.nodes {
		lanes[i] = &Direct[V, M]{Node: n}
	}
	return &Coordinator{Lanes: lanes, Latch: c.Latch, Every: inprocProbeEvery, Quiesced: c.quiesced}
}

// quiesced stops the run at declared quiescence.
func (c *clusterRun[V, M]) quiesced() {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	if quiescedHook != nil {
		quiescedHook(c)
	}
	c.Stop()
}

// run starts the nodes (Shared.Start: the only goroutines are the
// workers and the retry loop) and the watchdog, coordinates until the run
// stops, and collects the result. A cancelled run keeps its partial
// result; a failure or the node pick that finds the epoch budget spent
// stops it early.
func (c *clusterRun[V, M]) run(ctx context.Context) (*Result[V], error) {
	start := time.Now()
	shutdown := c.Start(ctx, c.deliver, c.nodes...)
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		c.watchdog(ctx)
	}()
	if c.cfg.OnStart != nil {
		c.cfg.OnStart(c)
	}

	converged, _, err := c.coordinator().Run(ctx)
	shutdown()
	<-watched
	if err == nil || ctx.Err() != nil {
		err = c.Err()
	}
	if err != nil {
		return nil, err
	}
	res := &Result[V]{Values: c.CollectValues()}
	if fc, ok := c.tr.(FaultCounter); ok {
		// Fold the transport's own fault counts into the registry so a
		// live Snapshot and the final Stats agree.
		dropped, duplicated := fc.FaultCounts()
		c.sh0.Add(telemetry.CtrBatchesDropped, dropped)
		c.sh0.Add(telemetry.CtrBatchesDuplicated, duplicated)
	}
	t := c.Tel.CounterTotals()
	res.Stats = Stats{
		Stats:             core.StatsFromTelemetry(c.Tel, c.G.NumVertices(), converged, time.Since(start)),
		Nodes:             c.cfg.Nodes,
		MessagesSent:      t[telemetry.CtrMessagesSent],
		BatchesSent:       t[telemetry.CtrBatchesSent],
		LocalWrites:       t[telemetry.CtrLocalWrites],
		BatchesRetried:    t[telemetry.CtrBatchesRetried],
		BatchesDropped:    t[telemetry.CtrBatchesDropped],
		BatchesDuplicated: t[telemetry.CtrBatchesDuplicated],
		NodesFailed:       t[telemetry.CtrNodesFailed],
	}
	return res, nil
}

// deliver is the transport's injection point: the envelope is applied to
// its node here, on whichever goroutine the transport carried it in on.
func (c *clusterRun[V, M]) deliver(to int, e Envelope) {
	c.nodes[to].Deliver(to, e)
}

// watchdogPeriod is the stall watchdog's sampling period.
const watchdogPeriod = 500 * time.Millisecond

// watchdog samples run progress once per watchdogPeriod and counts the
// periods in which nothing moved — neither a vertex update nor a batch
// settled. The count surfaces as Stats.StallWindows so a hung or
// partitioned run is visible even when it eventually completes.
func (c *clusterRun[V, M]) watchdog(ctx context.Context) {
	tick := time.NewTicker(watchdogPeriod)
	defer tick.Stop()
	last := int64(-1)
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.Done():
			return
		case <-tick.C:
		}
		sent, inflight := c.batchTotals()
		progress := c.Tel.Total(telemetry.CtrVertexUpdates) + int64(sent) - inflight
		if progress == last {
			c.sh0.Add(telemetry.CtrStallWindows, 1)
		}
		last = progress
	}
}
