package cluster

import (
	"context"
	"time"

	"graphabcd/internal/core"
	"graphabcd/internal/obslog"
	"graphabcd/internal/telemetry"
)

// Probe is one node's termination accounting.
type Probe struct {
	Sent, Applied uint64 // monotone counts of batches created and installed
	Inflight      int64  // batches created but not yet acked
	Quiet         bool   // the node's scheduler is quiescent
}

// RoundKind names what a round asks of every node: a Probe, its stats
// delta, a checkpoint shard of the round's epoch, or its owned values.
type RoundKind uint8

const (
	RoundProbe RoundKind = iota
	RoundStats
	RoundCkpt
	RoundStop
)

func (k RoundKind) String() string { return [...]string{"probe", "stats", "checkpoint", "stop"}[k] }

// Round is one request the coordinator sends every node.
type Round struct {
	Kind  RoundKind
	Epoch uint64                  // RoundCkpt: the epoch to capture
	Sink  *telemetry.ClusterStats // RoundStats: where each node's delta merges
}

// Lane is the coordinator's line to one node: Ask sends a round's
// request, Await takes the answer. A round Asks every lane before it
// Awaits any, so remote nodes answer one round concurrently.
type Lane interface {
	Ask(r Round) error
	Await(r Round) (Probe, error)
}

// Direct is the lane to a node in the coordinator's process: each round
// is a call on the node. It answers a probe or stats request when asked,
// and captures when awaited, once every remote node has its checkpoint
// request; a stop needs nothing of it, the values being here already.
type Direct[V, M any] struct {
	Node  *Node[V, M]
	Share *core.Share[V, M]          // nil when the run does not checkpoint
	Stats func() telemetry.NodeStats // the delta since the last call; nil without a sink
	probe Probe
}

func (d *Direct[V, M]) Ask(r Round) error {
	switch r.Kind {
	case RoundProbe:
		d.probe = d.Node.Probe()
	case RoundStats:
		delta := d.Stats()
		r.Sink.Apply(&delta)
	}
	return nil
}

func (d *Direct[V, M]) Await(r Round) (Probe, error) {
	if r.Kind == RoundCkpt {
		return d.probe, d.Share.Capture(r.Epoch)
	}
	return d.probe, nil
}

// Coordinator ends a cluster run, in both runtimes: a probe round every
// Every, with stats and checkpoint rounds between when set, until two
// consecutive probe rounds find every node quiet with nothing in flight
// and unchanged since the round before; then Quiesced, and a stop round
// that collects the values.
type Coordinator struct {
	Lanes []Lane      // one per node, in node order
	Latch *core.Latch // this process's run: once it stops, the rounds end
	Every time.Duration

	Sink       *telemetry.ClusterStats // when set, merges a stats round every StatsEvery and after quiescence
	StatsEvery time.Duration

	// Commit, when set, publishes a checkpoint epoch once every node has
	// acked its shard, every CkptEvery. Epoch is the last one committed.
	Commit    func(epoch uint64) error
	Epoch     uint64
	CkptEvery time.Duration

	// Quiesced stops this process's nodes at declared quiescence; false
	// declines it (in process: a kill stopped the run first).
	Quiesced func() bool
}

// Run drives the rounds; sent is the cluster's batch total from the last
// probe round. Not quiesced, it returns ctx.Err() on cancellation, the
// latch's error once this process's run has stopped (nil after an epoch
// budget), or the first lane error.
func (c *Coordinator) Run(ctx context.Context) (quiesced bool, sent uint64, err error) {
	var prev []Probe
	nextCkpt, nextStats := time.Now().Add(c.CkptEvery), time.Now().Add(c.StatsEvery)
	timer := time.NewTimer(c.Every)
	defer timer.Stop()
	for streak := 0; streak < 2; timer.Reset(c.Every) {
		select {
		case <-ctx.Done():
			return false, 0, ctx.Err()
		case <-c.Latch.Done():
			return false, 0, c.Latch.Err()
		case <-timer.C:
		}
		// Checkpoint and stats rounds read state without changing it, so
		// they cannot disturb the probe rounds they interleave with.
		if c.Commit != nil && !time.Now().Before(nextCkpt) {
			if _, _, err := c.round(Round{Kind: RoundCkpt, Epoch: c.Epoch + 1}); err != nil {
				return false, 0, err
			}
			if err := c.Commit(c.Epoch + 1); err != nil {
				return false, 0, err
			}
			c.Epoch, nextCkpt = c.Epoch+1, time.Now().Add(c.CkptEvery)
		}
		if c.Sink != nil && !time.Now().Before(nextStats) {
			if err := c.stats(); err != nil {
				return false, 0, err
			}
			nextStats = time.Now().Add(c.StatsEvery)
		}
		cur, _, err := c.round(Round{Kind: RoundProbe})
		if err != nil {
			return false, 0, err
		}
		streak++
		if !quiet(prev, cur) {
			streak = 0
		}
		prev = cur
	}
	if c.Sink != nil {
		if err := c.stats(); err != nil {
			return false, 0, err
		}
	}
	if !c.Quiesced() {
		return false, 0, c.Latch.Err()
	}
	obslog.L().Info("cluster quiescent, collecting values", "event", "dist.quiesce", "nodes", len(c.Lanes))
	if _, _, err := c.round(Round{Kind: RoundStop}); err != nil {
		return false, 0, err
	}
	for _, p := range prev {
		sent += p.Sent
	}
	return true, sent, nil
}

// quiet reports whether probe round cur extends a quiet streak after
// prev: every node quiet with nothing in flight, and its probe equal to
// its last. Between two such probes a node applied and created nothing,
// so nothing could activate it; two such rounds in a row bracket a moment
// when every node was idle and no batch existed.
func quiet(prev, cur []Probe) bool {
	for i, p := range cur {
		if prev == nil || !p.Quiet || p.Inflight != 0 || p != prev[i] {
			return false
		}
	}
	return true
}

// round asks every lane r, then awaits every answer in lane order;
// waited is the time spent awaiting.
func (c *Coordinator) round(r Round) (probes []Probe, waited time.Duration, err error) {
	for _, l := range c.Lanes {
		if err := l.Ask(r); err != nil {
			return nil, 0, err
		}
	}
	probes = make([]Probe, len(c.Lanes))
	for i, l := range c.Lanes {
		w0 := time.Now()
		probes[i], err = l.Await(r)
		waited += time.Since(w0)
		if err != nil {
			return nil, 0, err
		}
	}
	return probes, waited, nil
}

// stats runs one stats round and notes its cost in the sink: the work is
// the round's span less the waits for replies.
func (c *Coordinator) stats() error {
	begin := time.Now()
	_, waited, err := c.round(Round{Kind: RoundStats, Sink: c.Sink})
	span := time.Since(begin)
	c.Sink.NoteRound(span-waited, span)
	obslog.L().Debug("cluster telemetry round merged", "event", "dist.stats_round", "nodes", c.Sink.Len())
	return err
}
