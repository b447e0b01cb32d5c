package cluster

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/core"
	"graphabcd/internal/graph"
	"graphabcd/internal/sched"
	"graphabcd/internal/telemetry"
)

// Shared is the engine state the nodes hosted by one process hold in
// common: the block kernel (graph, program, partition, the value and
// edge-cache arrays, and the block ownership table — each vertex value
// is owned by one node, each in-edge slot by its destination's node),
// the slot stamps, the envelope sequence, and the stop latch (a worker
// blocked on a full send window, e.g. under a partition, parks on its
// Done channel — the retry loop strands the window slots of not-yet-due
// batches when it exits). The in-process runtime hosts every node over
// one Shared; a -listen/-join process hosts one node over its own
// (internal/cluster/tcp), whose graph carries only that node's edge
// sections.
type Shared[V, M any] struct {
	*core.Kernel[V, M]
	*core.Latch
	Tel *telemetry.Registry // never nil: a bare counter registry when the caller passed none

	// slotSeq holds the write stamp of the last update applied to each
	// cache slot over the transport. Remote applies are guarded by it:
	// a retried or reordered envelope whose stamp is older than the
	// slot's is skipped, so redelivery can never regress a slot to a
	// stale value. Local scatter writes bypass the stamps — a slot's
	// writer is its source vertex's owner, so local and remote writers
	// of one slot never coexist (failover fences the handover).
	slotSeq []atomic.Uint64 //abcd:stamped

	// Failover state, never set across processes: killed nodes, rebuilds
	// in progress, FailNode calls begun.
	dead       []atomic.Bool
	recovering atomic.Int64
	failures   atomic.Int64
	seq        atomic.Uint64 // logical batch ids / write stamps
	// fence serializes failover against block processing: every block
	// step holds the read side, FailNode holds the write side while it
	// reassigns blocks and rebuilds cache slots, so ownership changes are
	// atomic w.r.t. block processing. Only the in-process runtime ever
	// takes the write side.
	fence sync.RWMutex

	cfg    Config // defaults resolved
	tr     Transport
	shards []telemetry.Shard
	now    func() time.Time // every clock read of the delivery state machine; time.Now outside tests
}

// Node is one member of the cluster: a caller of the block kernel for
// the blocks it owns, through the block-worker loop (core.Loop) over one
// cyclic scheduler, and the at-least-once delivery state machine
// (unacked table, send window, stamp-guarded apply, retry) that carries
// the batches the kernel's scatter builds for other owners over the
// Transport. Both runtimes run this type, launch it through
// Shared.Start and end it through one Coordinator (coord.go). An
// envelope is delivered by whoever carries it — a worker or the retry
// loop on a direct transport, a timer goroutine under injected delay, a
// socket read loop over TCP: a node has no receive goroutine.
type Node[V, M any] struct {
	*Shared[V, M]
	ID    int
	Sched *sched.State // indexed by GLOBAL block id; only owned blocks activate
	// Ctl is the node's control-plane telemetry shard: applies, retries,
	// checkpoint captures. Its counters are atomics; its trace ring is
	// written only under applyMu. workers holds one shard per worker.
	Ctl     *telemetry.Shard
	workers []telemetry.Shard
	// loop is the node's pick seam: its workers claim blocks from one
	// cyclic scheduler over Sched, under the loop's lock.
	loop *core.Loop

	// Termination accounting. sent and applied are monotone; inflight
	// counts batches created but neither acked nor abandoned. They stay
	// exact single atomics: quiescence detection needs linearizable
	// counters, not the merged view a sharded sum gives.
	sent     atomic.Uint64
	applied  atomic.Uint64
	inflight atomic.Int64

	// unacked holds the sent-but-unacknowledged batches for the retry
	// tick; due is the tick's reusable scratch; peers holds one
	// retransmission timer estimate per destination node.
	unackedMu sync.Mutex
	unacked   map[uint64]*pending
	due       []*pending
	peers     []peerRTO

	// window is the MaxUnacked flow-control semaphore: flush acquires a
	// slot per batch it registers, and every path that retires an unacked
	// entry (first ack, dead-destination abandon, deadline failure,
	// failover orphan sweep) releases one. nil means unbounded. Safe
	// against deadlock because acks are produced by apply, which never
	// waits on the window.
	window chan struct{}

	// applyMu serializes applies (transport read loops may deliver
	// concurrently) and guards the transfer scratch; failover holds it to
	// park the node at an envelope boundary.
	applyMu       sync.Mutex
	old, incoming V
	buf           []uint64
}

// pending is one unacknowledged batch awaiting its ack or retransmission.
type pending struct {
	to       int
	env      Envelope
	attempts int
	// armed (unix nanoseconds) is when the latest transmission was handed
	// over, math.MaxInt64 while the first Send is still running. It is
	// atomic because flush arms it after that Send, outside unackedMu;
	// retryTick reads and re-arms it under the lock.
	armed    atomic.Int64
	deadline time.Time
}

// Retransmission timing. A node learns one timeout per destination peer
// from that peer's ack round trips (RFC 6298); these constants bound it.
const (
	// rtoMin floors the learned timeout: below it, a scheduler or GC
	// pause on either end reads as loss.
	rtoMin = time.Millisecond
	// rtoInitial is a peer's timeout until its first round-trip sample,
	// and about the slowest pace a silent peer is retried at.
	rtoInitial = 50 * time.Millisecond
	// rtoMax caps the timeout, backoff included, so a run of stalled round
	// trips cannot park every later loss for longer.
	rtoMax = time.Second
	// retryEvery is the retry loop's period: the resolution of every
	// timeout.
	retryEvery = rtoMin / 4
)

// peerRTO is one destination peer's retransmission timer, guarded by
// unackedMu. Every unacked batch to the peer is due once it has waited
// timeout(): the RTO, srtt + 4·rttvar, doubled once per step of backoff.
//
// Karn's rule decides what moves it. The ack of a batch sent once lifts
// the backoff and is a round-trip sample; the ack of a retransmitted
// batch cannot say which transmission it answers and moves neither. A
// first transmission that times out with no fresh ack since it was sent
// says the path may be slower than the timeout: the peer backs off a
// step, for every batch, and holds it until the next fresh ack. A
// retransmission that times out says nothing new — the batch may just be
// lost twice — so it does not. The backoff doubles the RTO once, and
// again while under rtoInitial; beyond that, only while the peer keeps
// answering (a slow path, which the backoff must outgrow for a fresh ack
// to return) — not a peer gone silent, whose lost batches a longer
// timeout only strands.
type peerRTO struct {
	srtt, rttvar time.Duration
	rto          time.Duration // srtt + 4·rttvar clamped; 0 until the first sample
	backoff      int
	// Unix ns of the latest sample, ack of a batch sent once, first ack
	// of any batch, and backoff step.
	timed, acked, heard, stepped int64
}

// settled records, at unix ns `at`, the first ack of a batch first sent r
// ago and retransmitted `retries` times. A batch sent once lifts the
// backoff and, at most once per round trip, is a sample (RFC 6298 §2):
// RFC 6298 times one transmission per round trip, and a window of acks
// arriving together would otherwise be a burst of near-equal samples
// that collapses rttvar.
func (p *peerRTO) settled(retries int, r time.Duration, at int64) {
	p.heard = at
	if retries > 0 {
		return
	}
	p.backoff, p.acked = 0, at
	switch {
	case p.rto == 0:
		p.srtt, p.rttvar = r, r/2
	case time.Duration(at-p.timed) < p.srtt:
		return
	default:
		p.rttvar += (max(p.srtt-r, r-p.srtt) - p.rttvar) / 4
		p.srtt += (r - p.srtt) / 8
	}
	p.rto = min(max(p.srtt+4*p.rttvar, rtoMin), rtoMax)
	p.timed = at
}

// base is the learned RTO, or rtoInitial before the first sample.
func (p *peerRTO) base() time.Duration {
	if p.rto == 0 {
		return rtoInitial
	}
	return p.rto
}

// timeout is how long a transmission to the peer waits for its ack.
func (p *peerRTO) timeout() time.Duration { return min(p.base()<<p.backoff, rtoMax) }

// expired records, at unix ns `now`, the timeout of a first transmission
// handed over at unix ns `armed`.
func (p *peerRTO) expired(armed, now int64) {
	if armed < p.acked {
		return // a fresh ack came in since: this batch was lost, not late
	}
	ceiling := max(2*p.base(), rtoInitial)
	if p.heard > p.stepped {
		ceiling = rtoMax
	}
	if p.timeout() < ceiling {
		p.backoff, p.stepped = p.backoff+1, now
	}
}

// NewNodes builds the shared state for a cfg.Nodes-node cluster over g
// and the nodes with the given ids on top of it. Blocks are split
// contiguously (BlockRange); the kernel is built with only what the
// hosted nodes own initialised — their vertex values and the only in-edge
// slots they ever gather from, which is all a partial graph carries — and
// each node activates only its own blocks. The ids are consecutive: every
// node in process, one per -listen/-join process.
func NewNodes[V, M any](g *graph.Graph, prog bcd.Program[V, M], cfg Config, ids []int) ([]*Node[V, M], error) {
	cfg = cfg.WithDefaults()
	part, err := graph.NewPartition(g, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	blo, _ := core.BlockRange(part.NumBlocks(), cfg.Nodes, ids[0])
	_, bhi := core.BlockRange(part.NumBlocks(), cfg.Nodes, ids[len(ids)-1])
	nv, bs := g.NumVertices(), part.BlockSize()
	kern, err := core.NewKernel(g, prog, cfg.BlockSize, nil, cfg.Epsilon, cfg.BatchSize, min(blo*bs, nv), min(bhi*bs, nv))
	if err != nil {
		return nil, err
	}
	nb := kern.Part.NumBlocks()
	s := &Shared[V, M]{
		Kernel:  kern,
		Latch:   core.NewLatch(),
		Tel:     cfg.Telemetry,
		slotSeq: make([]atomic.Uint64, g.NumEdges()),
		dead:    make([]atomic.Bool, cfg.Nodes),
		cfg:     cfg,
		tr:      cfg.Transport,
		now:     time.Now,
	}
	budget := int64(math.MaxInt64) // MaxEpochs as vertex updates over Tel's total
	if cfg.MaxEpochs > 0 {
		budget = int64(cfg.MaxEpochs * float64(g.NumVertices()))
	}
	if s.Tel == nil {
		s.Tel = telemetry.New(telemetry.Options{})
	}
	s.Tel.SetVertices(g.NumVertices())
	// Shard 0 belongs to the runtime's auxiliary goroutines (watchdog,
	// failover); each node then gets one shard per worker plus its Ctl.
	per := cfg.WorkersPerNode + 1
	s.shards = s.Tel.Shards(1 + len(ids)*per)
	for i := 0; i < cfg.Nodes; i++ {
		lo, hi := s.BlockRange(i)
		for b := lo; b < hi; b++ {
			s.Owner[b].Store(int32(i))
		}
	}
	nodes := make([]*Node[V, M], len(ids))
	for k, id := range ids {
		base := 1 + k*per
		n := &Node[V, M]{
			Shared:  s,
			ID:      id,
			Sched:   sched.NewState(nb),
			Ctl:     &s.shards[base+cfg.WorkersPerNode],
			workers: s.shards[base : base+cfg.WorkersPerNode],
			unacked: make(map[uint64]*pending),
			peers:   make([]peerRTO, cfg.Nodes),
			buf:     make([]uint64, max(s.Values.Words(), 2)),
		}
		if cfg.MaxUnacked > 0 {
			n.window = make(chan struct{}, cfg.MaxUnacked)
		}
		pick, err := core.CyclicPick(s.Latch, s.Tel, n.Sched, budget)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d scheduler: %w", id, err)
		}
		n.loop = &core.Loop{Latch: s.Latch, Tel: s.Tel, Pick: pick, Panic: "cluster: worker panic"}
		n.registerRTOGauges()
		lo, hi := s.BlockRange(id)
		for b := lo; b < hi; b++ {
			n.Sched.Activate(b, 1)
		}
		nodes[k] = n
	}
	return nodes, nil
}

// registerRTOGauges exposes what the retransmission timer learned about
// each peer: the smoothed round trip and the timeout a batch sent now
// would wait, both in ms.
func (n *Node[V, M]) registerRTOGauges() {
	for peer := range n.peers {
		if peer == n.ID {
			continue
		}
		read := func(f func(p *peerRTO) time.Duration) func() float64 {
			return func() float64 {
				n.unackedMu.Lock()
				defer n.unackedMu.Unlock()
				return float64(f(&n.peers[peer])) / float64(time.Millisecond)
			}
		}
		prefix := fmt.Sprintf("node%d_peer%d_", n.ID, peer)
		n.Tel.RegisterGauge(prefix+"srtt_ms", read(func(p *peerRTO) time.Duration { return p.srtt }))
		n.Tel.RegisterGauge(prefix+"rto_ms", read(func(p *peerRTO) time.Duration { return p.timeout() }))
	}
}

// BlockRange is core.BlockRange under this run's shape: the block span
// node i is seeded with.
func (s *Shared[V, M]) BlockRange(i int) (lo, hi int) {
	return core.BlockRange(s.Part.NumBlocks(), s.cfg.Nodes, i)
}

// VertexRange returns the vertex span of node i's BlockRange.
func (s *Shared[V, M]) VertexRange(i int) (lo, hi int) {
	blo, bhi := s.BlockRange(i)
	if blo >= bhi {
		return 0, 0
	}
	lo, _ = s.Part.VertexRange(blo)
	_, hi = s.Part.VertexRange(bhi - 1)
	return lo, hi
}

// Start is the launch sequence both runtimes run: bind the transport to
// deliver, start WorkersPerNode workers of the block-worker loop for each
// hosted node, and start the retry loop. The workers yield at block
// boundaries when this process's workers outnumber GOMAXPROCS. The
// returned shutdown is the matching teardown — stop the run, join those
// goroutines, then close the transport, in that order: once the workers
// and retries are gone no new data envelope can originate, so Close only
// has in-flight deliveries left to drain.
func (s *Shared[V, M]) Start(ctx context.Context, deliver func(to int, e Envelope), nodes ...*Node[V, M]) (shutdown func()) {
	s.tr.Bind(s.cfg.Nodes, deliver)
	yield := len(nodes)*s.cfg.WorkersPerNode > runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for _, n := range nodes {
		for w := 0; w < s.cfg.WorkersPerNode; w++ {
			wg.Add(1)
			go func(n *Node[V, M], w int) {
				defer wg.Done()
				kw := n.NewWorker(&n.workers[w], n.ID, n.Sched, n.flush)
				kw.Out = make([]core.Batch, n.cfg.Nodes)
				ws := &worker[V, M]{Worker: kw, deltas: make([]float64, n.Part.BlockSize())}
				n.loop.Work(ws.Sh, yield, func(b int) { n.runBlock(b, ws) })
			}(n, w)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		retryLoop(ctx, nodes)
	}()
	return func() {
		s.Stop()
		wg.Wait()
		s.tr.Close()
	}
}

// Seq returns the envelope sequence — an upper bound on every write
// stamp this process has issued. SetSeq restarts it (checkpoint resume).
func (s *Shared[V, M]) Seq() uint64     { return s.seq.Load() }
func (s *Shared[V, M]) SetSeq(v uint64) { s.seq.Store(v) }

// SnapshotStamps copies the write stamps of slots [lo, lo+len(dst)) with
// atomic loads; RestoreStamps is its inverse.
func (s *Shared[V, M]) SnapshotStamps(lo int64, dst []uint64) {
	for i := range dst {
		dst[i] = s.slotSeq[lo+int64(i)].Load()
	}
}

func (s *Shared[V, M]) RestoreStamps(lo int64, src []uint64) {
	for i, stamp := range src {
		s.slotSeq[lo+int64(i)].Store(stamp)
	}
}

// worker is one worker goroutine: its kernel worker (scratch, telemetry
// shard, per-owner building batches) and delta buffer.
type worker[V, M any] struct {
	*core.Worker[V, M]
	deltas []float64
}

// runBlock is a node worker's block step: process the claimed block and
// retire it, under the failover fence. A dead node's worker runs no
// further block; what it claims stays in its orphaned scheduler state,
// and its blocks belong to their heirs.
func (n *Node[V, M]) runBlock(b int, ws *worker[V, M]) {
	n.fence.RLock()
	defer n.fence.RUnlock()
	if !n.dead[n.ID].Load() {
		n.processBlock(b, ws)
		n.Sched.Done(b)
	}
}

// processBlock runs the block kernel's two halves back to back for one
// owned block: gather-apply, then scatter — owned slots store directly,
// the rest leave as batches through flush. Stage timings land in the
// calling worker's shard.
//
//abcd:hotpath
func (n *Node[V, M]) processBlock(b int, ws *worker[V, M]) {
	lo, hi := n.Part.VertexRange(b)
	deltas := ws.deltas[:hi-lo]
	gStart := n.Tel.Stamp()
	if _, err := n.GatherApply(lo, hi, deltas, nil, ws.Worker); err != nil {
		n.Fail(err)
		return
	}
	ws.Sh.Add(telemetry.CtrBlockUpdates, 1)
	sStart := n.Tel.Stamp()
	if sStart > 0 {
		ws.Sh.Observe(telemetry.StageGather, sStart-gStart)
		ws.Sh.Trace(telemetry.StageGather, b, gStart, sStart-gStart)
	}
	n.Scatter(lo, hi, deltas, nil, ws.Worker)
	for owner := range ws.Out {
		if len(ws.Out[owner].Slots) > 0 {
			n.flush(owner, &ws.Out[owner], ws.Sh)
		}
	}
	if end := n.Tel.Stamp(); end > 0 {
		ws.Sh.Observe(telemetry.StageScatter, end-sStart)
		ws.Sh.Trace(telemetry.StageScatter, b, sStart, end-sStart)
	}
}

// flush turns the building batch into a data envelope, registers it for
// at-least-once retry, and hands it to the transport, honoring the
// MaxUnacked send window. Counter order matters for termination: sent
// and inflight rise before the send, and inflight falls only when the
// ack comes back (or the destination dies and the failover rebuild takes
// over the batch's duty).
func (n *Node[V, M]) flush(to int, p *core.Batch, sh *telemetry.Shard) {
	if n.window != nil {
		select {
		case n.window <- struct{}{}:
		case <-n.Done():
			// Teardown: the batch dies with the run. Under a partition
			// the window slots held by undeliverable batches are never
			// coming back, so this is the only way out.
			return
		}
	}
	now := n.now()
	e := Envelope{
		kind:   envData,
		from:   n.ID,
		id:     n.seq.Add(1),
		sentAt: now,
		slots:  append([]int64(nil), p.Slots...),  //abcdlint:ignore hotpath -- ownership copy: the envelope crosses the transport while p is reused
		blocks: append([]int32(nil), p.Blocks...), //abcdlint:ignore hotpath -- ownership copy: the envelope crosses the transport while p is reused
		words:  append([]uint64(nil), p.Words...), //abcdlint:ignore hotpath -- ownership copy: the envelope crosses the transport while p is reused
	}
	p.Slots, p.Blocks, p.Words = p.Slots[:0], p.Blocks[:0], p.Words[:0]
	n.sent.Add(1)
	n.inflight.Add(1)
	sh.Add(telemetry.CtrMessagesSent, int64(len(e.slots)))
	sh.Add(telemetry.CtrBatchesSent, 1)
	sh.FlowSend(to, e.id, n.Tel.Stamp())
	u := &pending{to: to, env: e, deadline: now.Add(n.cfg.RetryDeadline)} //abcdlint:ignore hotpath -- at-least-once bookkeeping: one entry per batch, amortized over BatchSize slot updates
	u.armed.Store(math.MaxInt64)
	n.unackedMu.Lock() //abcdlint:ignore hotpath -- at-least-once bookkeeping: one lock per batch, amortized over BatchSize slot updates
	n.unacked[e.id] = u
	//abcdlint:ignore hotpath -- at-least-once bookkeeping: see the matching Lock above
	n.unackedMu.Unlock()
	n.tr.Send(n.ID, to, e)
	// The retransmission clock starts once the first transmission has been
	// handed over, not before: Send may deliver inline or block on
	// backpressure, and a sender descheduled in there has lost nothing.
	u.armed.Store(n.now().UnixNano())
}

// Deliver is the transport's entry point into the node. Acks settle
// directly on the delivering goroutine — settle only takes the unacked
// lock, so it can never block on an apply and never deadlocks two nodes
// acking each other. Data envelopes install inline and are acknowledged
// every time, even when every slot was stale, because a duplicate usually
// means the previous ack was lost. Only a batch install refuses goes
// unacked.
//
//abcd:hotpath
func (n *Node[V, M]) Deliver(to int, e Envelope) {
	switch {
	case to != n.ID: // misrouted frame: a peer dialed the wrong address
	case e.kind == envAck:
		n.settle(e.id)
	case n.install(e):
		n.tr.Send(n.ID, e.from, Envelope{kind: envAck, from: n.ID, id: e.id})
	}
}

// install writes one data batch into the cache under the per-slot
// write-stamp guard: a slot never regresses past a newer write, and
// every effective change re-activates its destination block. Envelopes
// come off a wire: a batch whose lengths disagree is refused whole (the
// sender's retry re-delivers), an entry naming a slot out of range or a
// block this node does not own is skipped. A dead node refuses all
// traffic.
func (n *Node[V, M]) install(e Envelope) bool {
	words := n.Cache.Words()
	if len(e.blocks) != len(e.slots) || len(e.words) != len(e.slots)*words {
		return false
	}
	n.applyMu.Lock()         //abcdlint:ignore hotpath -- amortized: one lock per delivered batch, over BatchSize slot installs
	defer n.applyMu.Unlock() //abcdlint:ignore hotpath -- amortized: see the matching Lock above
	if n.dead[n.ID].Load() {
		return false
	}
	start := n.Tel.Stamp()
	n.Ctl.FlowRecv(e.from, e.id, start)
	// Take the batch's slot lines for writing up front, so their misses
	// overlap instead of each stalling its own load and store below.
	for i, slot := range e.slots {
		if slot >= 0 && slot < int64(len(n.slotSeq)) {
			n.Cache.Prefetch(e.slots[i : i+1])
		}
	}
	for i, slot := range e.slots {
		b := int(e.blocks[i])
		if slot < 0 || slot >= int64(len(n.slotSeq)) || b < 0 || b >= len(n.Owner) || int(n.Owner[b].Load()) != n.ID {
			continue
		}
		if n.slotSeq[slot].Load() > e.id {
			continue // stale redelivery: a newer write already landed
		}
		n.Cache.LoadBuf(slot, &n.old, n.buf)
		// The wire words are the sender's encoding: stored as they came,
		// decoded only for the delta.
		enc := e.words[i*words : (i+1)*words]
		n.Prog.Codec().DecodeInto(enc, &n.incoming)
		n.Cache.StoreWords(slot, enc)
		n.slotSeq[slot].Store(e.id)
		if d := n.Prog.Delta(n.old, n.incoming); d > n.cfg.Epsilon {
			n.Sched.Activate(b, d)
		}
	}
	n.applied.Add(1)
	if end := n.Tel.Stamp(); end > 0 {
		n.Ctl.Observe(telemetry.StageApply, end-start)
		// Propagation delay stands in for the staleness the single-node
		// engine measures in milli-epochs: how long this batch's values
		// were in flight (sender's scatter to this apply), in ms — the
		// bounded-delay quantity async-BCD convergence reasons about.
		if !e.sentAt.IsZero() {
			n.Ctl.Observe(telemetry.StageStaleness, int64(n.now().Sub(e.sentAt)/time.Millisecond))
		}
	}
	return true
}

// settle clears one unacked batch on first ack; duplicate acks find the
// entry gone and release nothing, keeping inflight and the window exact.
// The first ack of a batch sent once is a round-trip sample of its peer,
// measured from before its Send so that an ack delivered inside that
// Send counts too. A retransmitted batch's ack yields none (Karn's rule):
// it cannot say which transmission it answers.
func (n *Node[V, M]) settle(id uint64) {
	now := n.now()
	n.unackedMu.Lock() //abcdlint:ignore hotpath -- amortized: one lock per acked batch, over BatchSize slot updates
	p, ok := n.unacked[id]
	if ok {
		n.peers[p.to].settled(p.attempts, now.Sub(p.env.sentAt), now.UnixNano())
		delete(n.unacked, id)
	}
	n.unackedMu.Unlock() //abcdlint:ignore hotpath -- amortized: see the matching Lock above
	if ok {
		n.retire(1)
	}
}

// retire accounts for k unacked entries leaving the table: inflight
// falls and k window slots free up. Acquire and release are one-to-one
// with the table, so the non-blocking receive never actually misses; it
// only keeps a bookkeeping bug from turning into a hang.
func (n *Node[V, M]) retire(k int) {
	n.inflight.Add(int64(-k))
	for ; k > 0 && n.window != nil; k-- {
		select {
		case <-n.window:
		default:
			return
		}
	}
}

// abandonAll drops every unacked batch of a node that just died: nobody
// will retry them, and the failover rebuild re-derives their payloads
// from the values.
func (n *Node[V, M]) abandonAll() {
	n.unackedMu.Lock()
	k := len(n.unacked)
	clear(n.unacked)
	n.unackedMu.Unlock()
	n.Ctl.Add(telemetry.CtrBatchesDropped, int64(k))
	n.retire(k)
}

// retryTick is one pass of the at-least-once delivery engine at time
// now: it retransmits the batches that waited out their peer's timeout
// (backing the peer off), abandons batches whose destination died (the
// failover rebuild is their compensation), and fails the run if a batch
// to a live node outlived its delivery deadline. Scan under the lock,
// send outside it.
func (n *Node[V, M]) retryTick(now time.Time) {
	n.due = n.due[:0]
	abandoned := 0
	n.unackedMu.Lock()
	for id, p := range n.unacked {
		peer := &n.peers[p.to]
		switch {
		case n.dead[p.to].Load():
			delete(n.unacked, id)
			abandoned++
		case time.Duration(now.UnixNano()-p.armed.Load()) < peer.timeout():
		case now.After(p.deadline):
			delete(n.unacked, id)
			abandoned++
			n.Fail(fmt.Errorf("cluster: batch %d from node %d to live node %d undelivered after %v (%d attempts): transport partitioned beyond the retry deadline",
				id, n.ID, p.to, n.cfg.RetryDeadline, p.attempts))
		default:
			if p.attempts == 0 {
				peer.expired(p.armed.Load(), now.UnixNano())
			}
			p.attempts++
			p.armed.Store(now.UnixNano())
			n.due = append(n.due, p)
		}
	}
	n.unackedMu.Unlock()
	if abandoned > 0 {
		n.Ctl.Add(telemetry.CtrBatchesDropped, int64(abandoned))
		n.retire(abandoned)
	}
	for _, p := range n.due {
		if n.Stopped() {
			return
		}
		n.Ctl.Add(telemetry.CtrBatchesRetried, 1)
		n.tr.Send(n.ID, p.to, p.env)
	}
}

// retryLoop drives retryTick for the given nodes of one Shared until the
// run stops or ctx ends.
func retryLoop[V, M any](ctx context.Context, nodes []*Node[V, M]) {
	s := nodes[0].Shared
	timer := time.NewTimer(retryEvery)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.Done():
			return
		case <-timer.C:
		}
		timer.Reset(retryEvery)
		now := s.now()
		for _, n := range nodes {
			n.retryTick(now)
		}
	}
}

// Probe returns the node's termination accounting. A failover that
// begins while it reads makes the node not quiet, so an equal failure
// count in two quiet probes means none began between them.
func (n *Node[V, M]) Probe() Probe {
	f := n.failures.Load()
	p := Probe{Sent: n.sent.Load(), Applied: n.applied.Load(), Inflight: n.inflight.Load(), Failures: f}
	p.Quiet = n.recovering.Load() == 0 && (n.dead[n.ID].Load() || n.Sched.Quiescent()) && n.failures.Load() == f
	return p
}
