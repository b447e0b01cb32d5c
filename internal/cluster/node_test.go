package cluster

import (
	"strings"
	"sync"
	"testing"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/core"
	"graphabcd/internal/gen"
	"graphabcd/internal/telemetry"
)

// scriptTransport is a fake Transport that delivers nothing: it records
// every Send and the test script decides what arrives, when, how often.
// A script may set inline to also act from inside Send, the way the
// direct and chaos transports deliver.
type scriptTransport struct {
	mu     sync.Mutex // only the blocked-flush case sends off the test goroutine
	sent   []scriptSend
	inline func(Envelope)
}

type scriptSend struct {
	from, to int
	env      Envelope
}

func (t *scriptTransport) Bind(int, func(int, Envelope)) {}
func (t *scriptTransport) Close()                        {}
func (t *scriptTransport) Send(from, to int, e Envelope) {
	t.mu.Lock()
	t.sent = append(t.sent, scriptSend{from, to, e})
	t.mu.Unlock()
	if t.inline != nil {
		t.inline(e)
	}
}

// take drains the recorded sends.
func (t *scriptTransport) take() []scriptSend {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.sent
	t.sent = nil
	return out
}

// rig is a two-node cluster over one Shared and a scriptTransport, driven
// step by step from the test goroutine on an injected clock. Node 0 is
// the sender under test, node 1 the receiver. Every step ends in check,
// which asserts the delivery state machine's conservation law.
type rig struct {
	t        *testing.T
	tr       *scriptTransport
	src, dst *Node[float64, float64]
	edges    []remoteEdge // src-owned vertex -> dst-owned vertex
	acked    uint64       // first acks the script delivered to src
	t0       time.Time
	clock    time.Time // what the nodes' now returns; only at and tick move it
}

// remoteEdge is one scatter target crossing from node 0 to node 1.
type remoteEdge struct {
	slot  int64
	block int32
}

func newRig(t *testing.T, tune func(*Config)) *rig {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(7, 6, 5))
	if err != nil {
		t.Fatal(err)
	}
	tr := &scriptTransport{}
	cfg := Config{Nodes: 2, BlockSize: 16, WorkersPerNode: 1, Transport: tr, RetryDeadline: 10 * time.Hour}
	if tune != nil {
		tune(&cfg)
	}
	nodes, err := NewNodes[float64, float64](g, bcd.PageRank{}, cfg, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{t: t, tr: tr, src: nodes[0], dst: nodes[1], t0: time.Now()}
	r.clock = r.t0
	r.src.now = func() time.Time { return r.clock } // src and dst share one Shared
	lo, hi := r.src.VertexRange(0)
	for v := lo; v < hi; v++ {
		for i := g.OutOffset(v); i < g.OutOffset(v+1); i++ {
			if b := r.src.Part.BlockOf(g.OutDst(i)); int(r.src.Owner[b].Load()) == 1 {
				r.edges = append(r.edges, remoteEdge{g.OutPos(i), int32(b)})
			}
		}
	}
	if len(r.edges) < 4 {
		t.Fatalf("test graph has only %d node0->node1 edges", len(r.edges))
	}
	// Retire the receiver's seed activations so that any activation seen
	// later was caused by an apply.
	blo, bhi := r.dst.BlockRange(1)
	for b := blo; b < bhi; b++ {
		r.dst.Sched.Claim(b)
		r.dst.Sched.Done(b)
	}
	if !r.dst.Sched.Quiescent() {
		t.Fatal("receiver not quiescent after retiring its seed activations")
	}
	return r
}

// check asserts sent = acked + abandoned + pending on the sender, and
// that inflight and the window mirror the unacked table exactly.
func (r *rig) check() {
	r.t.Helper()
	n := r.src
	n.unackedMu.Lock()
	pending := len(n.unacked)
	n.unackedMu.Unlock()
	abandoned := uint64(n.Tel.Total(telemetry.CtrBatchesDropped))
	if sent := n.sent.Load(); sent != r.acked+abandoned+uint64(pending) {
		r.t.Fatalf("conservation broken: sent %d != acked %d + abandoned %d + pending %d", sent, r.acked, abandoned, pending)
	}
	if in := n.inflight.Load(); in != int64(pending) {
		r.t.Fatalf("inflight %d, unacked table holds %d", in, pending)
	}
	if n.window != nil && len(n.window) != pending {
		r.t.Fatalf("window holds %d slots, unacked table holds %d", len(n.window), pending)
	}
}

// batchFor builds a one-update batch carrying value val on edge e.
func (r *rig) batchFor(e remoteEdge, val float64) *core.Batch {
	p := &core.Batch{Slots: []int64{e.slot}, Blocks: []int32{e.block}, Words: make([]uint64, 1)}
	r.src.Prog.Codec().Encode(val, p.Words)
	return p
}

// sendBatch flushes one batch carrying value val on edge e and returns the data
// envelope the transport saw (nil if flush sent nothing).
func (r *rig) sendBatch(e remoteEdge, val float64) *Envelope {
	r.t.Helper()
	r.src.flush(1, r.batchFor(e, val), &r.src.workers[0])
	sends := r.tr.take()
	r.check()
	if len(sends) == 0 {
		return nil
	}
	if len(sends) != 1 || sends[0].to != 1 || sends[0].env.kind != envData {
		r.t.Fatalf("flush produced %+v", sends)
	}
	return &sends[0].env
}

// deliver hands a data envelope to the receiver and returns the acks it
// sent back (not yet delivered to the sender).
func (r *rig) deliver(e Envelope) []Envelope {
	r.t.Helper()
	r.dst.Deliver(1, e)
	var acks []Envelope
	for _, s := range r.tr.take() {
		if s.env.kind != envAck || s.from != 1 || s.to != e.from {
			r.t.Fatalf("receiver sent %+v, want an ack to node %d", s, e.from)
		}
		acks = append(acks, s.env)
	}
	r.check()
	return acks
}

// ack delivers one ack to the sender; first says whether the script
// expects it to be the batch's first ack.
func (r *rig) ack(a Envelope, first bool) {
	r.t.Helper()
	if first {
		r.acked++
	}
	r.src.Deliver(0, a)
	r.check()
}

// at moves the clock to t0+d.
func (r *rig) at(d time.Duration) {
	r.t.Helper()
	c := r.t0.Add(d)
	if c.Before(r.clock) {
		r.t.Fatalf("clock moved back from t0+%v to t0+%v", r.clock.Sub(r.t0), d)
	}
	r.clock = c
}

// tick runs the sender's retry pass at t0+d and returns the resends.
func (r *rig) tick(d time.Duration) []scriptSend {
	r.t.Helper()
	r.at(d)
	r.src.retryTick(r.clock)
	out := r.tr.take()
	r.check()
	return out
}

// peer returns a copy of the sender's timer state for the receiver.
func (r *rig) peer() peerRTO {
	r.src.unackedMu.Lock()
	defer r.src.unackedMu.Unlock()
	return r.src.peers[1]
}

// roundTrip sends one batch at t0+d, acks it at t0+d+rtt — one fresh
// sample — and returns the peer state after it.
func (r *rig) roundTrip(d, rtt time.Duration) peerRTO {
	r.t.Helper()
	r.at(d)
	e := r.sendBatch(r.edges[3], 0.5)
	acks := r.deliver(*e)
	r.at(d + rtt)
	r.ack(acks[0], true)
	return r.peer()
}

func (r *rig) slotValue(slot int64) float64 {
	var v float64
	r.dst.Cache.LoadBuf(slot, &v, make([]uint64, 2))
	return v
}

func TestNodeDeliveryStateMachine(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name string
		tune func(*Config)
		run  func(t *testing.T, r *rig)
	}{
		{name: "ack settles once, duplicate ack releases nothing", tune: func(c *Config) { c.MaxUnacked = 2 },
			run: func(t *testing.T, r *rig) {
				a, b := r.sendBatch(r.edges[0], 0.25), r.sendBatch(r.edges[1], 0.5)
				if len(r.src.window) != 2 {
					t.Fatalf("window holds %d slots after two flushes", len(r.src.window))
				}
				acks := r.deliver(*a)
				if len(acks) != 1 || acks[0].id != a.id {
					t.Fatalf("acks = %+v", acks)
				}
				r.ack(acks[0], true)
				r.ack(acks[0], false) // duplicate: check() proves inflight and the window did not move again
				if in, w := r.src.inflight.Load(), len(r.src.window); in != 1 || w != 1 {
					t.Fatalf("after ack + duplicate ack: inflight %d, window %d; want 1, 1", in, w)
				}
				r.ack(r.deliver(*b)[0], true)
				if !r.dst.Sched.Active(int(a.blocks[0])) {
					t.Fatal("applied update did not activate its destination block")
				}
			}},
		{name: "retry backs off, redelivery is acked again", run: func(t *testing.T, r *rig) {
			r.roundTrip(0, 4*ms) // rto 12 ms
			a := r.sendBatch(r.edges[0], 0.25)
			if got := r.tick(16*ms - time.Nanosecond); len(got) != 0 {
				t.Fatalf("retried %d batches before the timeout", len(got))
			}
			got := r.tick(16 * ms)
			if len(got) != 1 || got[0].env.id != a.id || got[0].to != 1 {
				t.Fatalf("retry sent %+v", got)
			}
			if got := r.tick(40*ms - time.Nanosecond); len(got) != 0 {
				t.Fatal("retried again inside the doubled timeout")
			}
			if got := r.tick(40 * ms); len(got) != 1 {
				t.Fatalf("second retry sent %d batches", len(got))
			}
			if n := r.src.Tel.Total(telemetry.CtrBatchesRetried); n != 2 {
				t.Fatalf("BatchesRetried = %d", n)
			}
			first := r.deliver(*a)
			again := r.deliver(got[0].env) // the retransmission arrives too
			if len(first) != 1 || len(again) != 1 {
				t.Fatalf("every delivery must be acked: %d then %d acks", len(first), len(again))
			}
			r.ack(first[0], true)
			r.ack(again[0], false)
		}},
		{name: "the first sample sets srtt and rttvar, later ones smooth them", run: func(t *testing.T, r *rig) {
			if p := r.roundTrip(0, 8*ms); p.srtt != 8*ms || p.rttvar != 4*ms || p.rto != 24*ms {
				t.Fatalf("after an 8 ms sample: %+v, want srtt 8ms rttvar 4ms rto 24ms", p)
			}
			// rttvar = 3/4·4 + 1/4·|8−16| = 5, srtt = 7/8·8 + 1/8·16 = 9.
			if p := r.roundTrip(10*ms, 16*ms); p.srtt != 9*ms || p.rttvar != 5*ms || p.rto != 29*ms {
				t.Fatalf("after a 16 ms sample: %+v, want srtt 9ms rttvar 5ms rto 29ms", p)
			}
			// One sample per round trip: an ack within srtt of the last
			// sample is not one.
			if p := r.roundTrip(26*ms, 5*ms); p.srtt != 9*ms || p.rttvar != 5*ms {
				t.Fatalf("an ack 5 ms after a sample moved the estimate: %+v", p)
			}
		}},
		{name: "an ack delivered inside Send is a sample", run: func(t *testing.T, r *rig) {
			// The direct and chaos transports deliver on the sender's
			// goroutine: the batch settles before flush arms its timer.
			r.tr.inline = func(e Envelope) {
				if e.kind == envData {
					r.at(3 * ms)
					r.dst.Deliver(1, e)
				} else {
					r.acked++
					r.src.Deliver(0, e)
				}
			}
			r.src.flush(1, r.batchFor(r.edges[0], 0.25), &r.src.workers[0])
			if sends := r.tr.take(); len(sends) != 2 || sends[1].env.kind != envAck {
				t.Fatalf("inline flush sent %+v, want the batch and its ack", sends)
			}
			r.check()
			if p := r.peer(); p.srtt != 3*ms {
				t.Fatalf("inline ack left %+v, want a 3 ms sample", p)
			}
		}},
		{name: "Karn: the ack of a retransmitted batch moves nothing", run: func(t *testing.T, r *rig) {
			r.roundTrip(0, 4*ms) // srtt 4, rttvar 2, rto 12 ms
			a := r.sendBatch(r.edges[0], 0.25)
			if got := r.tick(16 * ms); len(got) != 1 {
				t.Fatalf("retry sent %d batches", len(got))
			}
			acks := r.deliver(*a)
			r.at(21 * ms)
			r.ack(acks[0], true)
			if p := r.peer(); p.srtt != 4*ms || p.rttvar != 2*ms || p.rto != 12*ms || p.backoff != 1 {
				t.Fatalf("ack of a retransmitted batch moved the estimator: %+v", p)
			}
			// rttvar = 3/4·2 + 1/4·|4−6| = 2, srtt = 7/8·4 + 1/8·6 = 4.25.
			if p := r.roundTrip(21*ms, 6*ms); p.srtt != 4250*time.Microsecond || p.rttvar != 2*ms || p.backoff != 0 {
				t.Fatalf("the next fresh ack is a sample: %+v", p)
			}
		}},
		{name: "a timeout holds the doubled timeout for later batches until a fresh sample", run: func(t *testing.T, r *rig) {
			if p := r.roundTrip(0, 4*ms); p.rto != 12*ms {
				t.Fatalf("rto %v, want 12ms", p.rto)
			}
			a := r.sendBatch(r.edges[0], 0.25) // at 4 ms
			if got := r.tick(16 * ms); len(got) != 1 || got[0].env.id != a.id {
				t.Fatalf("retry sent %+v", got)
			}
			r.ack(r.deliver(*a)[0], true)
			if p := r.peer(); p.backoff != 1 || p.timeout() != 24*ms {
				t.Fatalf("after a timeout and an ambiguous ack: %+v, want backoff 1 (24 ms)", p)
			}
			b := r.sendBatch(r.edges[1], 0.5) // a new batch, at 16 ms
			if got := r.tick(40*ms - time.Nanosecond); len(got) != 0 {
				t.Fatal("a batch sent after a timeout was retried before the doubled timeout")
			}
			if got := r.tick(40 * ms); len(got) != 1 || got[0].env.id != b.id {
				t.Fatalf("retry sent %+v", got)
			}
			if p := r.peer(); p.backoff != 2 {
				t.Fatalf("backoff %d after a second timeout, want 2", p.backoff)
			}
			r.ack(r.deliver(*b)[0], true)
			// rttvar = 3/4·2 + 1/4·0 = 1.5, srtt 4: rto 10 ms, backoff lifted.
			if p := r.roundTrip(41*ms, 4*ms); p.backoff != 0 || p.rto != 10*ms {
				t.Fatalf("a fresh sample left %+v, want backoff 0 rto 10ms", p)
			}
			c := r.sendBatch(r.edges[2], 0.75) // at 45 ms
			if got := r.tick(55*ms - time.Nanosecond); len(got) != 0 {
				t.Fatal("retried before the learned timeout")
			}
			if got := r.tick(55 * ms); len(got) != 1 || got[0].env.id != c.id {
				t.Fatalf("retry sent %+v", got)
			}
		}},
		{name: "a batch lost while the peer answers others, or lost again, backs nothing off", run: func(t *testing.T, r *rig) {
			r.roundTrip(0, 4*ms)
			a := r.sendBatch(r.edges[0], 0.25) // at 4 ms
			// rttvar = 3/4·2 + 1/4·0 = 1.5, srtt 4: rto 10 ms.
			if p := r.roundTrip(5*ms, 4*ms); p.rto != 10*ms {
				t.Fatalf("rto %v, want 10ms", p.rto)
			}
			if got := r.tick(14 * ms); len(got) != 1 || got[0].env.id != a.id {
				t.Fatalf("retry sent %+v", got)
			}
			if got := r.tick(24 * ms); len(got) != 1 || got[0].env.id != a.id {
				t.Fatalf("second retry sent %+v", got)
			}
			if p := r.peer(); p.backoff != 0 {
				t.Fatalf("backoff %d, want 0", p.backoff)
			}
		}},
		{name: "the timeout stays inside its clamps, backoff included", run: func(t *testing.T, r *rig) {
			if p := r.roundTrip(0, 100*time.Microsecond); p.rto != rtoMin {
				t.Fatalf("100µs round trip: rto %v, want the %v floor", p.rto, rtoMin)
			}
			// A silent peer's timeout doubles while it is under rtoInitial.
			at := 100 * time.Microsecond
			var silent []*Envelope
			for i := 0; i < 10; i++ {
				r.at(at)
				silent = append(silent, r.sendBatch(r.edges[i%3], 0.25))
				p := r.peer()
				at += p.timeout()
				r.tick(at)
			}
			if p := r.peer(); p.timeout() != 64*ms {
				t.Fatalf("silent peer's timeout %v, want 64ms", p.timeout())
			}
			// A peer that answers, if only ambiguously, is backed off up
			// to rtoMax: each first transmission that times out doubles it.
			for _, e := range silent {
				r.ack(r.deliver(*e)[0], true)
			}
			for i, wait := range []time.Duration{64 * ms, 128 * ms, 256 * ms, 512 * ms, rtoMax, rtoMax} {
				b := r.sendBatch(r.edges[i%3], 0.25)
				at += wait
				if got := r.tick(at - time.Nanosecond); len(got) != 0 {
					t.Fatalf("timeout %d: retried before %v", i, wait)
				}
				if got := r.tick(at); len(got) != 1 || got[0].env.id != b.id {
					t.Fatalf("timeout %d: retry after %v sent %+v", i, wait, got)
				}
				acks := r.deliver(*b)
				at += time.Nanosecond
				r.at(at)
				r.ack(acks[0], true)
			}
			if p := r.roundTrip(at, 3*time.Second); p.rto != rtoMax || p.backoff != 0 {
				t.Fatalf("3 s round trip: %+v, want the %v ceiling", p, rtoMax)
			}
		}},
		{name: "stale redelivery never regresses a slot and is still acked", run: func(t *testing.T, r *rig) {
			e := r.edges[0]
			older, newer := r.sendBatch(e, 0.25), r.sendBatch(e, 0.75)
			r.ack(r.deliver(*newer)[0], true)
			acks := r.deliver(*older) // reordered: the older write arrives last
			if len(acks) != 1 || acks[0].id != older.id {
				t.Fatalf("stale envelope acks = %+v", acks)
			}
			if v := r.slotValue(e.slot); v != 0.75 {
				t.Fatalf("slot regressed to %g", v)
			}
			if stamp := r.dst.slotSeq[e.slot].Load(); stamp != newer.id {
				t.Fatalf("stamp %d, want %d", stamp, newer.id)
			}
			r.ack(acks[0], true)
		}},
		{name: "batch past RetryDeadline fails the run", run: func(t *testing.T, r *rig) {
			r.sendBatch(r.edges[0], 0.25)
			if got := r.tick(11 * time.Hour); len(got) != 0 {
				t.Fatalf("expired batch was retransmitted: %+v", got)
			}
			err := r.src.Err()
			if err == nil || !strings.Contains(err.Error(), "undelivered after 10h0m0s") ||
				!strings.Contains(err.Error(), "transport partitioned beyond the retry deadline") {
				t.Fatalf("deadline error = %v", err)
			}
			if !r.src.Stopped() {
				t.Fatal("failure did not stop the run")
			}
		}},
		{name: "batches to a dead node are abandoned", run: func(t *testing.T, r *rig) {
			r.sendBatch(r.edges[0], 0.25)
			r.sendBatch(r.edges[1], 0.5)
			r.src.dead[1].Store(true)
			if got := r.tick(time.Second); len(got) != 0 {
				t.Fatalf("retried %d batches to a dead node", len(got))
			}
			if in := r.src.inflight.Load(); in != 0 {
				t.Fatalf("inflight %d after abandon", in)
			}
			if r.src.Err() != nil {
				t.Fatalf("abandon must not fail the run: %v", r.src.Err())
			}
		}},
		{name: "full window blocks flush; an ack or teardown unblocks it", tune: func(c *Config) { c.MaxUnacked = 1 },
			run: func(t *testing.T, r *rig) {
				a := r.sendBatch(r.edges[0], 0.25)
				// The window is full. A second flush parks until the ack
				// below frees the slot; receiving from done is the only
				// wait, so the case cannot pass by timing.
				done := make(chan struct{})
				p := r.batchFor(r.edges[1], 0.5)
				go func() {
					defer close(done)
					r.src.flush(1, p, &r.src.workers[0])
				}()
				acks := r.deliver(*a)
				r.acked++
				r.src.Deliver(0, acks[0])
				<-done
				if got := r.tr.take(); len(got) != 1 || got[0].env.kind != envData {
					t.Fatalf("unblocked flush sent %+v", got)
				}
				r.check()
				// Full again, and now the run tears down: flush must return
				// without sending or accounting anything.
				sent := r.src.sent.Load()
				r.src.Stop()
				if e := r.sendBatch(r.edges[2], 0.5); e != nil {
					t.Fatalf("flush after teardown sent %+v", e)
				}
				if r.src.sent.Load() != sent {
					t.Fatal("flush after teardown counted a batch")
				}
			}},
		{name: "malformed envelopes are dropped without panic", run: func(t *testing.T, r *rig) {
			e := r.edges[0]
			before := r.slotValue(e.slot)
			ownedBySrc, _ := r.src.BlockRange(0)
			bad := []struct {
				name  string
				env   Envelope
				acked bool
			}{
				{"blocks shorter than slots", Envelope{kind: envData, id: 90, slots: []int64{e.slot, e.slot}, blocks: []int32{e.block}, words: []uint64{1, 2}}, false},
				{"words not slots*codec width", Envelope{kind: envData, id: 91, slots: []int64{e.slot}, blocks: []int32{e.block}, words: []uint64{1, 2, 3}}, false},
				{"slot past the edge array", Envelope{kind: envData, id: 92, slots: []int64{int64(r.dst.G.NumEdges()) + 7}, blocks: []int32{e.block}, words: []uint64{1}}, true},
				{"negative slot", Envelope{kind: envData, id: 93, slots: []int64{-1}, blocks: []int32{e.block}, words: []uint64{1}}, true},
				{"block out of range", Envelope{kind: envData, id: 94, slots: []int64{e.slot}, blocks: []int32{int32(r.dst.Part.NumBlocks())}, words: []uint64{1}}, true},
				{"negative block", Envelope{kind: envData, id: 95, slots: []int64{e.slot}, blocks: []int32{-3}, words: []uint64{1}}, true},
				{"foreign block", Envelope{kind: envData, id: 96, slots: []int64{e.slot}, blocks: []int32{int32(ownedBySrc)}, words: []uint64{1}}, true},
			}
			for _, b := range bad {
				if acks := r.deliver(b.env); (len(acks) == 1) != b.acked {
					t.Fatalf("%s: %d acks, want acked=%v", b.name, len(acks), b.acked)
				}
				if v := r.slotValue(e.slot); v != before {
					t.Fatalf("%s: slot changed to %g", b.name, v)
				}
				if !r.dst.Sched.Quiescent() {
					t.Fatalf("%s: activated a block on the receiver", b.name)
				}
			}
			r.dst.Deliver(0, Envelope{kind: envData, id: 97, slots: []int64{e.slot}, blocks: []int32{e.block}, words: []uint64{1}})
			if got := r.tr.take(); len(got) != 0 {
				t.Fatalf("misrouted envelope produced %+v", got)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, tc.tune)
			r.check()
			tc.run(t, r)
		})
	}
}
