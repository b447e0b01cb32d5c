package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/core"
	"graphabcd/internal/graph"
	"graphabcd/internal/telemetry"
)

// inprocProbeEvery is the in-process coordinator's probe cadence: a
// round over direct lanes is a few atomic loads per node.
const inprocProbeEvery = 20 * time.Microsecond

// Control is the live handle Config.OnStart receives, from which tests
// and chaos harnesses inject node failures. Its methods are safe for
// concurrent use, and errors once the run is stopping.
type Control interface {
	// FailNode kills node id (of the run's first cfg.Nodes) mid-run: the
	// run restarts on the survivors from the values in shared memory. The
	// last live node cannot be failed.
	FailNode(id int) error
}

// clusterRun is the in-process runtime: every node of the cluster in
// this process, ended by the coordinator over one direct lane per node,
// plus the restart after a kill and the stall watchdog. The nodes run in
// generations, each over its own Shared but the run's one kernel,
// telemetry registry and transport.
type clusterRun[V, M any] struct {
	gen atomic.Pointer[Shared[V, M]] // the current generation: the transport delivers to its nodes
	sh0 *telemetry.Shard             // watchdog and kill counters

	// failMu serializes FailNode, the stop at declared quiescence and the
	// restart: a kill stops a generation before its coordinator declares
	// quiescence, or is refused.
	failMu sync.Mutex
	killed []bool // by original node id
	live   int    // nodes not killed: the next generation's size
}

// quiescedHook, when set, sees every in-process generation at declared
// quiescence, before it stops: tests install the exact check here.
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
	first, err := buildShared(g, prog, cfg, 0, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	c := &clusterRun[V, M]{killed: make([]bool, cfg.Nodes), live: cfg.Nodes}
	c.gen.Store(first)
	c.sh0 = &first.shards[0]
	registerRTOGauges(first.Tel, 0, cfg.Nodes, cfg.Nodes, c.gen.Load)
	first.Tel.RegisterGauge("live_nodes", func() float64 { return float64(len(c.gen.Load().nodes)) })
	first.Tel.RegisterGauge("inflight_batches", func() float64 {
		_, inflight := c.gen.Load().batchTotals()
		return float64(inflight)
	})
	return c, nil
}

// batchTotals sums the nodes' created-batch and in-flight counters.
func (s *Shared[V, M]) batchTotals() (sent uint64, inflight int64) {
	for _, n := range s.nodes {
		sent += n.sent.Load()
		inflight += n.inflight.Load()
	}
	return sent, inflight
}

// coordinator is generation g's coordinator: one direct lane per node.
// It stops g at declared quiescence unless something stopped it first —
// a kill, which the restart answers, a failure or the epoch budget.
func (c *clusterRun[V, M]) coordinator(g *Shared[V, M]) *Coordinator {
	lanes := make([]Lane, len(g.nodes))
	for i, n := range g.nodes {
		lanes[i] = &Direct[V, M]{Node: n}
	}
	return &Coordinator{Lanes: lanes, Latch: g.Latch, Every: inprocProbeEvery, Quiesced: func() bool {
		c.failMu.Lock()
		defer c.failMu.Unlock()
		if g.Stopped() {
			return false
		}
		if quiescedHook != nil {
			quiescedHook(g)
		}
		g.Stop()
		return true
	}}
}

// run binds the transport, starts the watchdog, and runs generations —
// start (Shared.Start), coordinate, shut down — until one ends without a
// kill; then it collects the result. A cancelled run keeps its partial
// result; a failure or the node pick that finds the epoch budget spent
// stops it early.
func (c *clusterRun[V, M]) run(ctx context.Context) (*Result[V], error) {
	start := time.Now()
	g := c.gen.Load()
	onStart := g.cfg.OnStart
	g.tr.Bind(g.cfg.Nodes, c.deliver)
	ended, watched := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watched)
		c.watchdog(ended)
	}()
	var converged bool
	var err error
	for next := true; next && err == nil; {
		g = c.gen.Load()
		shutdown := g.Start(ctx)
		if onStart != nil {
			onStart(c)
			onStart = nil
		}
		converged, _, err = c.coordinator(g).Run(ctx)
		shutdown()
		if err == nil || ctx.Err() != nil {
			err = g.Err()
		}
		if err == nil && converged {
			err = g.settled()
		}
		if err == nil {
			next, err = c.restart(g)
		}
	}
	close(ended)
	<-watched
	g.tr.Close()
	if err != nil {
		return nil, err
	}
	res := &Result[V]{Values: g.CollectValues()}
	if fc, ok := g.tr.(FaultCounter); ok {
		// Fold the transport's own fault counts into the registry so a
		// live Snapshot and the final Stats agree.
		dropped, duplicated := fc.FaultCounts()
		c.sh0.Add(telemetry.CtrBatchesDropped, dropped)
		c.sh0.Add(telemetry.CtrBatchesDuplicated, duplicated)
	}
	t := g.Tel.CounterTotals()
	res.Stats = Stats{
		Stats:             core.StatsFromTelemetry(g.Tel, g.G.NumVertices(), converged, time.Since(start)),
		Nodes:             len(c.killed),
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

// settled is a converged generation's last check, once its workers have
// joined and the bits hold still: no node's scheduler may hold a set
// active or in-flight bit.
func (s *Shared[V, M]) settled() error {
	for _, n := range s.nodes {
		if b := n.Sched.Leftover(); b >= 0 {
			return fmt.Errorf("cluster: node %d reported quiescence with block %d still active or in flight", n.ID, b)
		}
	}
	return nil
}

// FailNode implements Control: it records the kill and stops the current
// generation, which run restarts; one that loses to the declared stop is
// refused and not counted.
func (c *clusterRun[V, M]) FailNode(id int) error {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	g := c.gen.Load()
	switch {
	case id < 0 || id >= len(c.killed):
		return fmt.Errorf("cluster: FailNode(%d): no such node", id)
	case c.killed[id]:
		return fmt.Errorf("cluster: FailNode(%d): node already failed", id)
	case c.live <= 1:
		return fmt.Errorf("cluster: FailNode(%d): cannot fail the last live node", id)
	case g.Stopped() && c.live == len(g.nodes):
		return fmt.Errorf("cluster: FailNode(%d): run already stopping", id)
	}
	c.killed[id] = true
	c.live--
	c.sh0.Add(telemetry.CtrNodesFailed, 1)
	g.Stop()
	return nil
}

// restart follows a generation a kill ended, once it is shut down, and
// reports whether there was one: the next generation runs on the live
// nodes from the values, the whole iterate (DESIGN.md §8). Its sources
// are stamped above every envelope id issued so far and its images
// rebuilt from the values, which also re-derives every batch the old generation
// lost; newShared activates every block. Only then does deliver reach it.
func (c *clusterRun[V, M]) restart(g *Shared[V, M]) (bool, error) {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	if c.live == len(g.nodes) {
		return false, nil
	}
	cfg := g.cfg
	cfg.Nodes = c.live
	next, err := newShared(g.Kernel, cfg, g.shards, 0, c.live, g.Seq()+1)
	if err != nil {
		return false, err
	}
	if err := g.RebuildInEdges(0, g.G.NumVertices()); err != nil {
		return false, err
	}
	c.gen.Store(next)
	return true, nil
}

// deliver is the transport's injection point for the whole run: node
// `to` of the current generation applies e on the carrying goroutine. An
// index past it — a node of an earlier, larger generation — is refused.
func (c *clusterRun[V, M]) deliver(to int, e Envelope) {
	if g := c.gen.Load(); to < len(g.nodes) {
		g.nodes[to].Deliver(to, e)
	}
}

// watchdogPeriod is the stall watchdog's sampling period.
const watchdogPeriod = 500 * time.Millisecond

// watchdog samples run progress once per watchdogPeriod until the run
// ends, and counts the periods in which nothing moved — neither a vertex
// update nor a batch settled. The count surfaces as Stats.StallWindows so
// a hung or partitioned run is visible even when it eventually completes.
func (c *clusterRun[V, M]) watchdog(ended <-chan struct{}) {
	tick := time.NewTicker(watchdogPeriod)
	defer tick.Stop()
	last := int64(-1)
	for {
		select {
		case <-ended:
			return
		case <-tick.C:
		}
		g := c.gen.Load()
		sent, inflight := g.batchTotals()
		progress := g.Tel.Total(telemetry.CtrVertexUpdates) + int64(sent) - inflight
		if progress == last {
			c.sh0.Add(telemetry.CtrStallWindows, 1)
		}
		last = progress
	}
}
