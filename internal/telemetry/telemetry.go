// Package telemetry is the engine's live instrumentation layer: per-worker
// padded shards of atomic counters and fixed-bucket latency histograms, a
// sampled block-lifecycle tracer emitting Chrome trace-event JSON, and a
// convergence monitor — all merged on demand into a JSON-marshalable
// Snapshot served by cmd/graphabcd's -metrics-addr endpoint.
//
// The design constraint is the same one the engine itself lives under
// (DESIGN.md §7): the hot path must stay lock-free and allocation-free.
// Every hot-path write lands in a shard owned by exactly one worker —
// an uncontended atomic add on a cache line no other worker touches —
// and every aggregation (Snapshot, Total) is a read-side merge across
// shards. Shards are padded so adjacent workers never share a cache
// line; this same layout replaces the engine's old single-struct counter
// block, whose eight adjacent atomics were a measurable false-sharing
// hotspot (see BenchmarkCounters* and DESIGN.md §9).
//
// Cost discipline: with a Registry created without Options (the engine's
// private default), Stamp returns 0 without reading the clock, Observe
// and Trace return on a nil-pointer check, and the only residual cost is
// the sharded counter adds the engine needs anyway for Stats. With
// histograms or tracing enabled the added cost is two clock reads and a
// handful of uncontended atomic adds per *block* (never per edge or per
// vertex) — see BenchmarkEngineTelemetry in the repo root.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one sharded run counter.
type Counter uint8

// The counter set covers the single-node engine, the cluster layer, and
// the tracer's own drop accounting, so every execution mode reports
// through one registry.
const (
	CtrBlockUpdates Counter = iota
	CtrVertexUpdates
	CtrEdgesTraversed
	CtrScatterWrites
	CtrHybridBlocks
	CtrTasksIssued
	CtrTasksFinished
	CtrStallWindows
	CtrMessagesSent
	CtrBatchesSent
	CtrLocalWrites
	CtrBatchesRetried
	CtrBatchesDropped
	CtrBatchesDuplicated
	CtrNodesFailed
	CtrTraceDropped
	// CtrCkptEpochs counts locally captured checkpoint epochs and
	// CtrCkptBytes the state bytes they wrote — the durability cost that
	// was previously computed and dropped (ISSUE 9 satellite).
	CtrCkptEpochs
	CtrCkptBytes
	NumCounters
)

// counterNames are the Snapshot/expvar keys, index-aligned with the
// Counter constants.
var counterNames = [NumCounters]string{
	"block_updates",
	"vertex_updates",
	"edges_traversed",
	"scatter_writes",
	"hybrid_blocks",
	"tasks_issued",
	"tasks_finished",
	"stall_windows",
	"messages_sent",
	"batches_sent",
	"local_writes",
	"batches_retried",
	"batches_dropped",
	"batches_duplicated",
	"nodes_failed",
	"trace_dropped",
	"ckpt_epochs",
	"ckpt_bytes",
}

// Name returns the snapshot key of c.
func (c Counter) Name() string { return counterNames[c] }

// Stage identifies one instrumented pipeline stage for histograms and
// trace events.
type Stage uint8

const (
	// StageGather is one block's GATHER-APPLY pass (ns).
	StageGather Stage = iota
	// StageScatter is one block's SCATTER pass (ns).
	StageScatter
	// StagePick is one block claim (ns): from a worker asking for a block
	// to holding one — the wait for the block-worker loop's pick lock
	// (the engine's, or a cluster node's) plus the pick.
	StagePick
	// StageApply is one remote batch's application on a cluster node (ns).
	StageApply
	// StageStaleness is a block's read-to-publish staleness in
	// milli-epochs: how many thousandths of an epoch-equivalent of global
	// progress happened between the block's gather reading cached values
	// and its scatter publishing the results — the bounded-delay quantity
	// async-BCD convergence theory reasons about.
	StageStaleness
	// StageCkpt is one checkpoint epoch's capture latency (ns): the time
	// from starting the fuzzy state snapshot to the state file being
	// durable. Observed on the checkpoint goroutine, never a worker.
	StageCkpt
	NumStages
)

var stageNames = [NumStages]string{
	"gather", "scatter", "pick", "apply", "staleness", "checkpoint",
}

// Name returns the snapshot/trace name of s.
func (s Stage) Name() string { return stageNames[s] }

// shardHist is one shard's private histogram block; nil when histograms
// are disabled.
type shardHist struct {
	counts [int(NumStages) * NumBuckets]atomic.Int64
	sums   [NumStages]atomic.Int64
	maxs   [NumStages]atomic.Int64
}

// Shard is one worker's private telemetry block. Exactly one goroutine
// writes a shard; any goroutine may read it (the snapshot merge), which
// is why the slots are atomics — uncontended, so the add costs the same
// as a plain store plus a lock prefix. The trailing pad keeps adjacent
// shards in a contiguous slice on distinct cache lines.
type Shard struct {
	counters [NumCounters]atomic.Int64
	hist     *shardHist
	ring     *ring
	_        [96]byte // pad Shard to 256 B: no false sharing between neighbors
}

// Add increments counter c by n.
//
//abcd:hotpath
func (s *Shard) Add(c Counter, n int64) { s.counters[c].Add(n) }

// Observe records value v (ns for duration stages, milli-epochs for
// StageStaleness) into stage st's histogram. No-op when histograms are
// disabled.
//
//abcd:hotpath
func (s *Shard) Observe(st Stage, v int64) {
	h := s.hist
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[int(st)*NumBuckets+bucketOf(v)].Add(1)
	h.sums[st].Add(v)
	for {
		cur := h.maxs[st].Load()
		if v <= cur || h.maxs[st].CompareAndSwap(cur, v) {
			return
		}
	}
}

// Trace records one sampled block-lifecycle event into the shard's trace
// ring. start is a Stamp value; dur is in ns. No-op when tracing is
// disabled.
//
//abcd:hotpath
func (s *Shard) Trace(st Stage, block int, start, dur int64) {
	r := s.ring
	if r == nil {
		return
	}
	r.record(st, block, start, dur)
}

// FlowSend records the send endpoint of a cross-node message flow: this
// node shipped envelope seq to peer at ts (a Stamp value). Sampled by
// seq, so the matching FlowRecv on the peer keeps or drops the same
// flows. No-op when tracing is disabled.
//
//abcd:hotpath
func (s *Shard) FlowSend(peer int, seq uint64, ts int64) {
	r := s.ring
	if r == nil {
		return
	}
	r.recordFlow(kindFlowSend, peer, seq, ts)
}

// FlowRecv records the receive endpoint of a cross-node message flow:
// envelope seq from peer arrived at ts. See FlowSend.
//
//abcd:hotpath
func (s *Shard) FlowRecv(peer int, seq uint64, ts int64) {
	r := s.ring
	if r == nil {
		return
	}
	r.recordFlow(kindFlowRecv, peer, seq, ts)
}

// Options configures a Registry. The zero value is the bare counter mode
// the engine uses when the caller did not ask for telemetry.
type Options struct {
	// Histograms enables per-stage latency/staleness histograms and the
	// clock behind Stamp.
	Histograms bool
	// Tracer, when non-nil, receives sampled block-lifecycle events from
	// every shard. Enabling a tracer also enables the clock.
	Tracer *Tracer
}

// Registry is the run-wide telemetry hub: it owns the shard set, the
// convergence series, and the named gauges, and merges them all in
// Snapshot. Create one per run; pass it to core.Config.Telemetry or
// cluster.Config.Telemetry and keep a reference for live reads.
type Registry struct {
	start  time.Time
	timing bool
	tracer *Tracer

	shards atomic.Pointer[[]Shard]

	mu       sync.Mutex // guards gauges and conv (cold paths only)
	gauges   []gauge
	conv     []ConvSample
	vertices int64
}

type gauge struct {
	name string
	fn   func() float64
}

// New creates a registry. With zero Options only the sharded counters are
// live: Stamp returns 0, Observe and Trace no-op.
func New(opt Options) *Registry {
	return &Registry{
		start:  time.Now(),
		timing: opt.Histograms || opt.Tracer != nil,
		tracer: opt.Tracer,
	}
}

// Live reports whether the registry records timings (histograms or
// tracing enabled). Callers use it to skip computing inputs that Observe
// would discard anyway.
func (r *Registry) Live() bool { return r.timing }

// Tracer returns the attached tracer, or nil.
func (r *Registry) Tracer() *Tracer { return r.tracer }

// Stamp returns the current time as ns since the registry was created, or
// 0 when timing is disabled. Subtraction of two stamps is a duration.
//
//abcd:hotpath
func (r *Registry) Stamp() int64 {
	if !r.timing {
		return 0
	}
	return int64(time.Since(r.start))
}

// Shards allocates and publishes the run's shard set: one shard per
// worker, plus however many the engine wants for its scheduler and
// housekeeping goroutines. It replaces any previous set (a registry
// serves one run at a time); workers hold their *Shard for the whole run,
// so the indirection is paid once at startup.
func (r *Registry) Shards(n int) []Shard {
	if n < 1 {
		n = 1
	}
	set := make([]Shard, n)
	if r.timing {
		for i := range set {
			set[i].hist = &shardHist{}
		}
	}
	if r.tracer != nil {
		for i := range set {
			set[i].ring = r.tracer.newRing(int32(i))
		}
	}
	r.shards.Store(&set)
	//abcdlint:ignore publish -- deliberate handout: each caller owns exactly the shards it asked for and is the only writer to them; concurrent readers go through the shards' atomic counters
	return set
}

// Total returns the sum of counter c across all shards. The sum is exact
// once writers are quiescent and monotone while they run, which is all
// the engine's budget checks and the watchdog need.
func (r *Registry) Total(c Counter) int64 {
	set := r.shards.Load()
	if set == nil {
		return 0
	}
	var sum int64
	for i := range *set {
		sum += (*set)[i].counters[c].Load()
	}
	return sum
}

// CounterTotals returns every counter's cross-shard sum.
func (r *Registry) CounterTotals() [NumCounters]int64 {
	var out [NumCounters]int64
	set := r.shards.Load()
	if set == nil {
		return out
	}
	for i := range *set {
		for c := range out {
			out[c] += (*set)[i].counters[c].Load()
		}
	}
	return out
}

// SetVertices records |V| so Snapshot can derive epochs and epochs/sec.
func (r *Registry) SetVertices(n int) {
	r.mu.Lock()
	r.vertices = int64(n)
	r.mu.Unlock()
}

// RegisterGauge installs (or replaces, by name) a live gauge sampled at
// every Snapshot. Gauge functions must be safe for concurrent use; the
// engine registers closures over queue lengths and scheduler state.
func (r *Registry) RegisterGauge(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.gauges {
		if r.gauges[i].name == name {
			r.gauges[i].fn = fn
			return
		}
	}
	r.gauges = append(r.gauges, gauge{name, fn})
}

// ConvSample is one point of the convergence time series.
type ConvSample struct {
	Epoch      int     `json:"epoch"`
	ElapsedSec float64 `json:"elapsed_sec"`
	// Residual is the global pending gradient mass — the L1 norm of
	// scatter-image changes not yet consumed by a gather, the quantity
	// whose decay is the run's convergence signal.
	Residual float64 `json:"residual"`
	// ActiveBlocks is the active-list population at the sample.
	ActiveBlocks int `json:"active_blocks"`
}

// RecordConvergence appends one sample; called at epoch boundaries from
// the engine's pick, never from a gather or scatter loop. No-op when
// timing is disabled so the bare-counter mode stays free.
func (r *Registry) RecordConvergence(epoch int, residual float64, activeBlocks int) {
	if !r.timing {
		return
	}
	s := ConvSample{
		Epoch:        epoch,
		ElapsedSec:   time.Since(r.start).Seconds(),
		Residual:     residual,
		ActiveBlocks: activeBlocks,
	}
	r.mu.Lock()
	r.conv = append(r.conv, s)
	r.mu.Unlock()
}

// Convergence returns a copy of the convergence series so far.
func (r *Registry) Convergence() []ConvSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ConvSample, len(r.conv))
	copy(out, r.conv)
	return out
}
