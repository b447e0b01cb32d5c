// Package cluster scales GraphABCD out across multiple nodes — the
// distributed deployment the paper's asynchronous design argues for
// (Sec. IV-A3: "the whole system can scale out to more heterogeneous
// platforms without further coordination logic") but only prototypes on a
// single CPU-FPGA pair.
//
// Each node (Node, node.go) owns a set of vertex blocks: its vertex
// values, one scatter image per vertex of the graph that its vertices'
// in-edges read, and one scheduler, which its workers claim from under one pick lock and run
// through core's block-worker loop, as the engine's workers do. SCATTER
// updates whose destination block lives on another node travel as
// state-based messages through a pluggable Transport. Because updates
// are state-based, messages are idempotent and tolerate delay and
// redelivery — the bounded-staleness condition of asynchronous BCD is
// the only correctness requirement, so the steady-state path has no
// barriers, only the pick lock, channels and atomics. A vertex's scatter
// image is one value on all its out-edges, so it travels once per peer:
// an envelope carries (source vertex, image) entries, and the receiver
// stores each image once in its image array and activates the blocks
// that source feeds there, through a source index it builds per node
// when the node is made.
//
// There is one node implementation, one coordinator, and two runtimes
// around them: Run (inproc.go) hosts every node in this process over
// shared arrays, and internal/cluster/tcp hosts one node per OS process
// over real sockets. Both launch their nodes through Shared.Start and
// reach them one way: the Transport delivers straight to Node.Deliver,
// so an envelope is applied by whoever carries it and a node has no
// receive goroutine. Latency, loss and reordering therefore belong to
// the Transport alone.
//
// The transport contract is deliberately weak: messages may be dropped,
// duplicated, delayed, or reordered (internal/chaos injects exactly
// those faults). The cluster compensates with at-least-once delivery —
// unacked batches are retried after a timeout learned from each peer's
// ack round trips, backing off while they keep timing out — and write
// stamps, one per receiving node and source vertex, that discard stale
// redeliveries. Nodes may also be killed
// mid-run (Control.FailNode, in-process only): the run restarts on the
// survivors from the values in shared memory, rebuilding every image
// from them as a checkpoint resume does.
//
// Termination is ack-based and exact: a batch stays in flight until the
// receiver has applied (and re-activated from) it and its ack is back.
// The one Coordinator (coord.go) probes every node over a Lane — direct
// calls in its process, control frames to a TCP joiner — until two
// consecutive rounds find nothing moved; see quiet there.
package cluster

import (
	"context"
	"fmt"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/core"
	"graphabcd/internal/graph"
	"graphabcd/internal/telemetry"
)

// Config parameterizes a distributed run.
type Config struct {
	// Nodes is the number of nodes the blocks are partitioned across.
	// If Nodes exceeds the block count it is clamped down so every node
	// owns at least one block (Stats.Nodes reports the effective count).
	Nodes int
	// BlockSize is the BCD block size within each node.
	BlockSize int
	// WorkersPerNode is the number of gather-apply workers per node. 0
	// means 2.
	WorkersPerNode int
	// Epsilon is the activation threshold, as in core.Config.
	Epsilon float64
	// MaxEpochs bounds total work at MaxEpochs * |V| vertex updates
	// across the cluster; 0 means run to convergence. The first pick past
	// the budget stops the run and every worker finishes the block it
	// holds, so a run does at most Nodes * WorkersPerNode * BlockSize
	// vertex updates more.
	MaxEpochs float64
	// BatchSize groups remote updates per message (amortizes the
	// per-message cost, increases staleness), counted in images: one
	// changed vertex's value for all the slots it feeds on the receiver.
	// 0 means 64.
	BatchSize int

	// Transport overrides how envelopes move between nodes. nil means
	// the perfect in-process transport; chaos.New builds a seeded faulty
	// one (drops, duplicates, delay jitter, partitions). It is the one
	// place latency is injected.
	Transport Transport
	// RetryDeadline bounds how long one batch may stay undelivered
	// before the run fails (an unbounded partition is the one fault the
	// cluster does not tolerate — see DESIGN.md §8). 0 means 30s.
	RetryDeadline time.Duration
	// MaxUnacked caps each node's sent-but-unacknowledged batches: a
	// worker flushing past the cap waits for acks before creating more.
	// The window keeps the retry scan bounded when the transport is
	// slower than the workers — without it a lossy, backpressured wire
	// lets the unacked set (and with it the retransmission backlog)
	// grow until retries arrive too late to beat RetryDeadline. The
	// window is also the deepest queue ahead of a slow receiver, so it
	// must drain within the 1 s retransmission ceiling, or every batch
	// times out and the resends feed the queue: a receiver slowed to
	// ~1 ms per batch (the race detector on a loaded host) drains 256 in
	// a quarter second. 0 means 256; negative means unbounded (the
	// pre-window behavior, which perfect in-process transports never
	// notice).
	MaxUnacked int
	// OnStart, when non-nil, receives the run's Control handle once the
	// first workers start: the hook for mid-run node failures.
	OnStart func(Control)
	// Telemetry, when non-nil, is the live instrumentation registry the
	// run emits into (internal/telemetry): the same registry the single-
	// node engine uses, extended with the cluster counters (messages,
	// batches, retries, drops, node failures) and per-batch StageApply
	// latency. The caller may read Registry.Snapshot concurrently while
	// the run executes. When nil the cluster uses a private bare-counter
	// registry that only feeds Stats.
	Telemetry *telemetry.Registry
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("cluster: Nodes must be positive, got %d", c.Nodes)
	case c.BlockSize < 0:
		return fmt.Errorf("cluster: negative block size %d", c.BlockSize)
	case c.WorkersPerNode < 0:
		return fmt.Errorf("cluster: negative WorkersPerNode %d", c.WorkersPerNode)
	case c.Epsilon < 0:
		return fmt.Errorf("cluster: negative epsilon %g", c.Epsilon)
	case c.MaxEpochs < 0:
		return fmt.Errorf("cluster: negative MaxEpochs %g", c.MaxEpochs)
	case c.BatchSize < 0:
		return fmt.Errorf("cluster: negative BatchSize %d", c.BatchSize)
	case c.RetryDeadline < 0:
		return fmt.Errorf("cluster: negative RetryDeadline %v", c.RetryDeadline)
	}
	return nil
}

// WithDefaults returns c with every zero-valued tuning knob resolved to
// its documented default — the one place those defaults are defined. The
// result is a fixed point (resolving twice changes nothing), so a
// resolved Config can travel to another process and be resolved again.
func (c Config) WithDefaults() Config {
	if c.WorkersPerNode == 0 {
		c.WorkersPerNode = 2
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.MaxUnacked == 0 {
		c.MaxUnacked = 256
	} else if c.MaxUnacked < 0 {
		c.MaxUnacked = -1 // unbounded
	}
	if c.RetryDeadline == 0 {
		c.RetryDeadline = 30 * time.Second
	}
	return c
}

// Stats summarizes a distributed run.
type Stats struct {
	core.Stats
	// Nodes is the effective node count the run used (after clamping to
	// the block count).
	Nodes int
	// MessagesSent counts remote slot updates: the out-edges into
	// another node's blocks of each changed vertex.
	MessagesSent int64
	// BatchesSent counts logical network messages (batches of updates);
	// retransmissions of the same batch are counted in BatchesRetried.
	BatchesSent int64
	// LocalWrites counts scatter writes that stayed node-local.
	LocalWrites int64
	// BatchesRetried counts at-least-once retransmissions of unacked
	// batches.
	BatchesRetried int64
	// BatchesDropped counts envelopes lost in the transport (injected
	// faults).
	BatchesDropped int64
	// BatchesDuplicated counts envelopes the transport delivered more
	// than once (injected faults).
	BatchesDuplicated int64
	// NodesFailed counts nodes killed mid-run via Control.FailNode.
	NodesFailed int64
}

// Result bundles final values with statistics.
type Result[V any] struct {
	Values []V
	Stats  Stats
}

// Run executes prog over g partitioned across cfg.Nodes nodes. Cancelling
// ctx stops the run gracefully: the partial result is returned with
// Stats.Converged == false and a nil error.
func Run[V, M any](ctx context.Context, g *graph.Graph, prog bcd.Program[V, M], cfg Config) (*Result[V], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if _, ok := prog.(bcd.OpBased[V, M]); ok {
		return nil, fmt.Errorf("cluster: operation-based program %q is not supported: "+
			"delta messages are not idempotent under the cluster's at-least-once channel semantics",
			prog.Name())
	}
	c, err := newCluster(g, prog, cfg)
	if err != nil {
		return nil, err
	}
	return c.run(ctx)
}
