package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/core"
	"graphabcd/internal/graph"
	"graphabcd/internal/telemetry"
)

// clusterRun is the in-process runtime: every Node of the cluster over
// one Shared, plus what only exists when all nodes live in one address
// space — failover, shared-atomic quiescence detection, and the stall
// watchdog.
type clusterRun[V, M any] struct {
	*Shared[V, M]
	nodes []*Node[V, M]

	failMu     sync.Mutex   // serializes FailNode calls
	recovering atomic.Int64 // FailNode calls currently rebuilding state
	liveNodes  atomic.Int64

	sh0       *telemetry.Shard // watchdog and failover counters
	converged atomic.Bool
}

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
	c.liveNodes.Store(int64(len(nodes)))
	c.Tel.RegisterGauge("live_nodes", func() float64 { return float64(c.liveNodes.Load()) })
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

// run starts the nodes (Shared.Start: the only goroutines are the
// workers and the retry loop) and the watchdog, coordinates until the run
// stops, and collects the result.
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

	c.coordinate(ctx)
	shutdown()
	<-watched

	if err := c.Err(); err != nil {
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
		Stats:             core.StatsFromTelemetry(c.Tel, c.G.NumVertices(), c.converged.Load(), time.Since(start)),
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

// watchdog samples run progress once per watchdog period and counts the
// periods in which nothing moved — neither a vertex update nor a batch
// settled. The count surfaces as Stats.StallWindows so a hung or
// partitioned run is visible even when it eventually completes.
func (c *clusterRun[V, M]) watchdog(ctx context.Context) {
	period := c.cfg.Watchdog
	if period <= 0 {
		return
	}
	tick := time.NewTicker(period)
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

// coordinate is the cluster's termination unit. It stops the run when the
// context is cancelled or distributed quiescence is certain; a failure or
// the node pick that finds the epoch budget spent has stopped it already.
func (c *clusterRun[V, M]) coordinate(ctx context.Context) {
	for !c.Stopped() {
		switch {
		case ctx.Err() != nil:
			// Graceful cancellation: stop scheduling, keep the partial
			// result. Converged stays false.
		case c.checkQuiescence():
			c.converged.Store(true)
		default:
			time.Sleep(20 * time.Microsecond)
			continue
		}
		c.Stop()
	}
}

// checkQuiescence implements the exact distributed termination test,
// ack-based so it stays exact under retries, duplicates, and node death.
//
// Order of observation: (1) snapshot the monotone per-node sent counters;
// (2) require no failover rebuild in progress — a rebuild is about to
// re-activate blocks, so the system is not quiet; (3) require every
// node's inflight == 0 — every logical batch ever created has either
// been acked (the receiver raised the destination's active bit *before*
// sending the ack, and the sender decremented inflight only after
// processing the ack, so all resulting activations are visible) or been
// abandoned at a failed node *after* the rebuild that compensates for it
// started, which step (2) covers; retries and duplicate deliveries never
// touch the counters, and duplicate acks find the unacked entry already
// gone; (4) require every live node quiescent — any worker still
// processing holds its block in-flight and would fail this (dead nodes'
// scheduler state is orphaned by reassignment and excluded); (5) require
// the sent counters unchanged and still no rebuild — no new batch was
// created and no node died while we looked (a failover that ran start to
// finish inside the window shows up as a changed live count). Each sent
// counter is monotone, so an unchanged sum means every one of them held
// still across steps (2)–(4), during which inflight could only fall. If
// all five hold, no work exists anywhere.
func (c *clusterRun[V, M]) checkQuiescence() bool {
	live := c.liveNodes.Load()
	s1, inflight := c.batchTotals()
	if c.recovering.Load() != 0 || inflight != 0 {
		return false
	}
	for _, n := range c.nodes {
		if !c.dead[n.ID].Load() && !n.Sched.Quiescent() {
			return false
		}
	}
	s2, inflight := c.batchTotals()
	return s2 == s1 && inflight == 0 && c.recovering.Load() == 0 && c.liveNodes.Load() == live
}
