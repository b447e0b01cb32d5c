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
	"graphabcd/internal/word"
)

// Shared is the engine state the nodes hosted by one process hold in
// common: the block kernel (graph, program, partition, the value array,
// one image array per hosted node, and the block ownership table — each
// vertex value is owned by one node), the envelope sequence, and the stop latch (a worker
// blocked on a full send window, e.g. under a partition, parks on its
// Done channel — the retry loop strands the window slots of not-yet-due
// batches when it exits). The in-process runtime hosts each generation's
// nodes over one Shared, a -listen/-join process one node over its own,
// whose graph carries only that node's edge sections.
type Shared[V, M any] struct {
	*core.Kernel[V, M]
	*core.Latch
	Tel *telemetry.Registry // never nil: a bare counter registry when the caller passed none

	seq atomic.Uint64 // logical batch ids / write stamps

	nodes  []*Node[V, M] // the nodes this process hosts over it
	cfg    Config        // defaults resolved
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

	// img is the node's image array (Kernel.Images[ID]): its own
	// vertices' images, stored by its workers' scatter, and other nodes'
	// vertices' images, stored by install. The node's gather reads
	// nothing else.
	img *word.Array[V]
	// in is the node's source index: the blocks each other node's vertex
	// feeds here, which install activates when that vertex's image moves.
	in srcIndex
	// srcSeq holds, per source vertex, the write stamp of the last image
	// applied here over the transport. Remote applies are guarded by it:
	// a retried or reordered envelope whose stamp is older than the
	// source's is skipped, so redelivery can never regress an image to a
	// stale value. The stamps are the node's own: in process, a source
	// feeding two receivers reaches them in two envelopes, and one
	// receiver's newer id must not shadow the other's. Local scatter
	// writes bypass them — an image's writer is its vertex's owner, so
	// local and remote writers of one image never coexist. A restart
	// stamps every source above every envelope id issued before it.
	srcSeq []atomic.Uint64 //abcd:stamped

	// Termination accounting. sent and applied are monotone; inflight
	// counts batches created but not yet acked. They stay
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
	// slot per batch it registers, and its first ack releases it. nil
	// means unbounded. Safe against deadlock because acks are produced by
	// apply, which never waits on the window.
	window chan struct{}

	// applyMu serializes applies (transport read loops may deliver
	// concurrently) and guards the transfer and activation scratch;
	// shutdown takes it once to wait out an apply still running.
	applyMu       sync.Mutex
	old, incoming V
	buf           []uint64
	mass          []float64 // per-block mass of the apply in progress
	touched       []int     // blocks with non-zero mass
}

// srcIndex lists, per source vertex, the blocks of the node's in-edge
// slots it feeds — a CSR over the sources: vertex u feeds one slot in
// each entry of blocks[off[u]:off[u+1]], in slot order, so a block fed
// twice is listed twice. A vertex of the node's own range has an empty
// run — its owner's scatter activates those blocks — and so has one that
// feeds the node nothing.
type srcIndex struct {
	off    []int64 // |V|+1
	blocks []int32
}

// newSrcIndex builds the source index of the in-edge slots of vertices
// [vlo, vhi) with a counting sort, reading their sources from the
// kernel's edge source — all a -join node's partial graph carries.
func newSrcIndex[V, M any](k *core.Kernel[V, M], vlo, vhi int) (srcIndex, error) {
	nv := k.G.NumVertices()
	x := srcIndex{off: make([]int64, nv+1)}
	if vlo == vhi {
		return x, nil
	}
	slo, shi := k.G.InOffset(vlo), k.G.InOffset(vhi)
	srcs, _, release, err := k.Edges.Block(vlo, vhi, slo, shi)
	if err != nil {
		return srcIndex{}, err
	}
	defer release()
	remote := func(u uint32) bool { return int(u) < vlo || int(u) >= vhi }
	for _, u := range srcs {
		if int(u) >= nv {
			return srcIndex{}, fmt.Errorf("cluster: in-edge source %d out of range (%d vertices)", u, nv)
		}
		if remote(u) {
			x.off[u+1]++
		}
	}
	for u := range nv {
		x.off[u+1] += x.off[u]
	}
	x.blocks = make([]int32, x.off[nv])
	// Fill with off[u] as u's cursor, which leaves it at u+1's start;
	// shifting by one restores the offsets.
	for v := vlo; v < vhi; v++ {
		b := int32(k.Part.BlockOf(uint32(v)))
		for s := k.G.InOffset(v); s < k.G.InOffset(v+1); s++ {
			if u := srcs[s-slo]; remote(u) {
				x.blocks[x.off[u]] = b
				x.off[u]++
			}
		}
	}
	copy(x.off[1:], x.off[:nv])
	x.off[0] = 0
	return x, nil
}

// run returns the blocks source u feeds, one per slot; empty for a
// vertex id past the graph.
func (x *srcIndex) run(u uint32) []int32 {
	if int(u) >= len(x.off)-1 {
		return nil
	}
	return x.blocks[x.off[u]:x.off[u+1]]
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
// and nodes lo..hi-1 on top of it: every node in process, one per
// -listen/-join process. Blocks are split contiguously (BlockRange); the
// kernel is built with only the hosted nodes' vertex values initialised,
// and every vertex's initial image, and each node activates only its
// own blocks. It registers the hosted nodes' retransmission gauges.
func NewNodes[V, M any](g *graph.Graph, prog bcd.Program[V, M], cfg Config, lo, hi int) ([]*Node[V, M], error) {
	s, err := buildShared(g, prog, cfg, lo, hi)
	if err != nil {
		return nil, err
	}
	registerRTOGauges(s.Tel, lo, hi, s.cfg.Nodes, func() *Shared[V, M] { return s })
	return s.nodes, nil
}

// buildShared is NewNodes but for the gauges, which the in-process
// runtime registers over its generations instead.
func buildShared[V, M any](g *graph.Graph, prog bcd.Program[V, M], cfg Config, lo, hi int) (*Shared[V, M], error) {
	cfg = cfg.WithDefaults()
	part, err := graph.NewPartition(g, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	blo, _ := core.BlockRange(part.NumBlocks(), cfg.Nodes, lo)
	_, bhi := core.BlockRange(part.NumBlocks(), cfg.Nodes, hi-1)
	nv, bs := g.NumVertices(), part.BlockSize()
	kern, err := core.NewKernel(g, prog, cfg.BlockSize, nil, cfg.Epsilon, cfg.BatchSize, min(blo*bs, nv), min(bhi*bs, nv))
	if err != nil {
		return nil, err
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New(telemetry.Options{})
	}
	cfg.Telemetry.SetVertices(nv)
	// Shard 0 belongs to the runtime's auxiliary goroutines (watchdog,
	// kills); each node then gets one shard per worker plus its Ctl.
	return newShared(kern, cfg, cfg.Telemetry.Shards(1+(hi-lo)*(cfg.WorkersPerNode+1)), lo, hi, 0)
}

// newShared builds one Shared over kern for a cfg.Nodes-node cluster
// owning the blocks by BlockRange, and nodes lo..hi-1 over it, the k-th
// counting into shards[1+k*(WorkersPerNode+1):], over its own image
// array (Kernel.Host), indexing the sources of its in-edge slots and
// activating its own blocks. The envelope sequence and every source stamp
// start at seq: 0 for a fresh or resumed run, whose process has never
// seen an envelope. A restart calls it over the run's kernel and shards,
// above the killed generation's sequence, so counters, the epoch budget
// and the stamps carry on across generations.
func newShared[V, M any](kern *core.Kernel[V, M], cfg Config, shards []telemetry.Shard, lo, hi int, seq uint64) (*Shared[V, M], error) {
	s := &Shared[V, M]{
		Kernel: kern,
		Latch:  core.NewLatch(),
		Tel:    cfg.Telemetry,
		cfg:    cfg,
		tr:     cfg.Transport,
		shards: shards,
		now:    time.Now,
	}
	s.seq.Store(seq)
	budget := int64(math.MaxInt64) // MaxEpochs as vertex updates over Tel's total
	if cfg.MaxEpochs > 0 {
		budget = int64(cfg.MaxEpochs * float64(kern.G.NumVertices()))
	}
	for i := 0; i < cfg.Nodes; i++ {
		lo, hi := s.BlockRange(i)
		for b := lo; b < hi; b++ {
			s.Owner[b].Store(int32(i))
		}
	}
	kern.Host(lo, hi)
	per := cfg.WorkersPerNode + 1
	nb := kern.Part.NumBlocks()
	s.nodes = make([]*Node[V, M], hi-lo)
	for id := lo; id < hi; id++ {
		base := 1 + (id-lo)*per
		vlo, vhi := s.VertexRange(id)
		in, err := newSrcIndex(kern, vlo, vhi)
		if err != nil {
			return nil, err
		}
		n := &Node[V, M]{
			Shared:  s,
			ID:      id,
			Sched:   sched.NewState(nb),
			Ctl:     &shards[base+cfg.WorkersPerNode],
			workers: shards[base : base+cfg.WorkersPerNode],
			img:     kern.Images[id],
			in:      in,
			srcSeq:  make([]atomic.Uint64, kern.G.NumVertices()),
			unacked: make(map[uint64]*pending),
			peers:   make([]peerRTO, cfg.Nodes),
			buf:     make([]uint64, max(s.Values.Words(), 2)),
			mass:    make([]float64, nb),
		}
		if seq > 0 {
			for u := range n.srcSeq {
				n.srcSeq[u].Store(seq)
			}
		}
		if cfg.MaxUnacked > 0 {
			n.window = make(chan struct{}, cfg.MaxUnacked)
		}
		pick := core.CyclicPick(s.Latch, s.Tel, n.Sched, budget)
		n.loop = &core.Loop{Latch: s.Latch, Tel: s.Tel, Pick: pick, Panic: "cluster: worker panic"}
		blo, bhi := s.BlockRange(id)
		for b := blo; b < bhi; b++ {
			n.Sched.Activate(b, 1)
		}
		s.nodes[id-lo] = n
	}
	return s, nil
}

// registerRTOGauges exposes what the retransmission timers learned, for
// every node id in [lo, hi) and each of its peers among nodes: the
// smoothed round trip and the timeout a batch sent now would wait, both
// in ms. Each gauge reads the node gen returns at scrape time — so a
// restart re-points it instead of pinning the generation it was
// registered under — and reads 0 where gen has no such node or peer.
func registerRTOGauges[V, M any](tel *telemetry.Registry, lo, hi, nodes int, gen func() *Shared[V, M]) {
	for id := lo; id < hi; id++ {
		for peer := range nodes {
			if peer == id {
				continue
			}
			read := func(f func(p *peerRTO) time.Duration) func() float64 {
				return func() float64 {
					n := gen().node(id)
					if n == nil || peer >= len(n.peers) {
						return 0
					}
					n.unackedMu.Lock()
					defer n.unackedMu.Unlock()
					return float64(f(&n.peers[peer])) / float64(time.Millisecond)
				}
			}
			prefix := fmt.Sprintf("node%d_peer%d_", id, peer)
			tel.RegisterGauge(prefix+"srtt_ms", read(func(p *peerRTO) time.Duration { return p.srtt }))
			tel.RegisterGauge(prefix+"rto_ms", read(func(p *peerRTO) time.Duration { return p.timeout() }))
		}
	}
}

// node returns the hosted node with the given id, or nil.
func (s *Shared[V, M]) node(id int) *Node[V, M] {
	for _, n := range s.nodes {
		if n.ID == id {
			return n
		}
	}
	return nil
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

// Start is the launch sequence both runtimes run once their transport is
// bound to the nodes: WorkersPerNode workers of the block-worker loop
// per hosted node, yielding at block boundaries when this process's
// workers outnumber GOMAXPROCS, and their retry loop. The returned
// shutdown stops the run, joins those goroutines and waits out any apply
// still running; install refuses every later delivery, so the kernel is
// then the caller's alone, to collect or to restart from.
func (s *Shared[V, M]) Start(ctx context.Context) (shutdown func()) {
	yield := len(s.nodes)*s.cfg.WorkersPerNode > runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for _, n := range s.nodes {
		for w := 0; w < s.cfg.WorkersPerNode; w++ {
			wg.Add(1)
			go func(n *Node[V, M], w int) {
				defer wg.Done()
				kw := n.NewWorker(&n.workers[w], n.ID, n.Sched, n.flush)
				kw.Out = make([]core.Batch, n.cfg.Nodes)
				ws := &worker[V, M]{Worker: kw, deltas: make([]float64, n.Part.BlockSize())}
				n.loop.Work(ws.Sh, yield, func(b int) { n.processBlock(b, ws) })
			}(n, w)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.retryLoop(ctx)
	}()
	return func() {
		s.Stop()
		wg.Wait()
		for _, n := range s.nodes { // an apply in progress holds applyMu
			n.applyMu.Lock()
			n.applyMu.Unlock()
		}
	}
}

// Seq returns the envelope sequence — an upper bound on every write
// stamp this process has issued.
func (s *Shared[V, M]) Seq() uint64 { return s.seq.Load() }

// worker is one worker goroutine: its kernel worker (scratch, telemetry
// shard, per-owner building batches) and delta buffer.
type worker[V, M any] struct {
	*core.Worker[V, M]
	deltas []float64
}

// processBlock is a node worker's block step: the block kernel's two
// halves back to back for one owned block, gather-apply then scatter —
// each changed vertex's image stored once in the node's image array, and
// sent once to every other node it feeds, as batches through flush — and
// Done. Stage timings land in the calling worker's shard.
//
//abcd:hotpath
func (n *Node[V, M]) processBlock(b int, ws *worker[V, M]) {
	defer n.Sched.Done(b)
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
		if len(ws.Out[owner].Srcs) > 0 {
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
// ack comes back.
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
		kind:   envImages,
		from:   n.ID,
		id:     n.seq.Add(1),
		sentAt: now,
		srcs:   append([]uint32(nil), p.Srcs...),  //abcdlint:ignore hotpath -- ownership copy: the envelope crosses the transport while p is reused
		words:  append([]uint64(nil), p.Words...), //abcdlint:ignore hotpath -- ownership copy: the envelope crosses the transport while p is reused
	}
	p.Srcs, p.Words = p.Srcs[:0], p.Words[:0]
	n.sent.Add(1)
	n.inflight.Add(1)
	sh.Add(telemetry.CtrBatchesSent, 1)
	sh.FlowSend(to, e.id, n.Tel.Stamp())
	u := &pending{to: to, env: e, deadline: now.Add(n.cfg.RetryDeadline)}
	u.armed.Store(math.MaxInt64)
	n.unackedMu.Lock() //abcdlint:ignore hotpath -- at-least-once bookkeeping: one lock per batch, amortized over BatchSize images
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
// every time, even when every entry was stale, because a duplicate usually
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

// install writes one data batch into the node's image array under the
// per-source write-stamp guard, entry by entry: one store per source,
// which never regresses past a newer image, and every effective change
// re-activates the blocks it feeds here, each once per batch with the
// summed mass — the change once per slot, as a local scatter adds it.
// Envelopes come off a wire: a batch whose word count disagrees with its
// entries is refused whole (the sender's retry re-delivers), an entry
// naming a vertex past the graph or one that feeds this node nothing —
// its own vertices included — is skipped. A node whose run has stopped
// refuses all traffic: after a restart, its image array is the next
// generation's.
func (n *Node[V, M]) install(e Envelope) bool {
	words := n.img.Words()
	if len(e.words) != len(e.srcs)*words {
		return false
	}
	n.applyMu.Lock()         //abcdlint:ignore hotpath -- amortized: one lock per delivered batch, over BatchSize image installs
	defer n.applyMu.Unlock() //abcdlint:ignore hotpath -- amortized: see the matching Lock above
	if n.Stopped() {
		return false
	}
	start := n.Tel.Stamp()
	n.Ctl.FlowRecv(e.from, e.id, start)
	codec := n.Prog.Codec()
	for i, u := range e.srcs {
		blocks := n.in.run(u)
		if len(blocks) == 0 || n.srcSeq[u].Load() > e.id {
			continue // nothing to feed here, or a stale redelivery: a newer image already landed
		}
		// The wire words are the sender's encoding: stored as they came,
		// decoded only for the delta.
		enc := e.words[i*words : (i+1)*words]
		codec.DecodeInto(enc, &n.incoming)
		n.img.LoadBuf(int64(u), &n.old, n.buf)
		n.img.StoreWords(int64(u), enc)
		if d := n.Prog.Delta(n.old, n.incoming); d > n.cfg.Epsilon {
			for _, b := range blocks {
				if n.mass[b] == 0 {
					n.touched = append(n.touched, int(b)) //abcdlint:ignore hotpath -- amortized: per-node buffer, reset to [:0] below with capacity retained
				}
				n.mass[b] += d
			}
		}
		n.srcSeq[u].Store(e.id)
	}
	for _, b := range n.touched {
		n.Sched.Activate(b, n.mass[b])
		n.mass[b] = 0
	}
	n.touched = n.touched[:0]
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
	n.unackedMu.Lock() //abcdlint:ignore hotpath -- amortized: one lock per acked batch, over BatchSize images
	p, ok := n.unacked[id]
	if ok {
		n.peers[p.to].settled(p.attempts, now.Sub(p.env.sentAt), now.UnixNano())
		delete(n.unacked, id)
	}
	n.unackedMu.Unlock() //abcdlint:ignore hotpath -- amortized: see the matching Lock above
	if !ok {
		return
	}
	// Acquire and release of the window are one-to-one with the table,
	// so the non-blocking receive never misses; it only keeps a
	// bookkeeping bug from turning into a hang.
	n.inflight.Add(-1)
	if n.window != nil {
		select {
		case <-n.window:
		default:
		}
	}
}

// retryTick is one pass of the at-least-once delivery engine at time
// now: it retransmits the batches that waited out their peer's timeout
// (backing the peer off), and fails the run if a batch outlived its
// delivery deadline. Scan under the lock, send outside it.
func (n *Node[V, M]) retryTick(now time.Time) {
	n.due = n.due[:0]
	n.unackedMu.Lock()
	for id, p := range n.unacked {
		peer := &n.peers[p.to]
		switch {
		case time.Duration(now.UnixNano()-p.armed.Load()) < peer.timeout():
		case now.After(p.deadline):
			n.Fail(fmt.Errorf("cluster: batch %d from node %d to node %d undelivered after %v (%d attempts): transport partitioned beyond the retry deadline",
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
	for _, p := range n.due {
		if n.Stopped() {
			return
		}
		n.Ctl.Add(telemetry.CtrBatchesRetried, 1)
		n.tr.Send(n.ID, p.to, p.env)
	}
}

// retryLoop drives retryTick for the hosted nodes until the run stops or
// ctx ends.
func (s *Shared[V, M]) retryLoop(ctx context.Context) {
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
		for _, n := range s.nodes {
			n.retryTick(now)
		}
	}
}

// Probe returns the node's termination accounting.
func (n *Node[V, M]) Probe() Probe {
	return Probe{Sent: n.sent.Load(), Applied: n.applied.Load(), Inflight: n.inflight.Load(), Quiet: n.Sched.Quiescent()}
}
