package tcp

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"graphabcd/internal/cluster"
	"graphabcd/internal/obslog"
	"graphabcd/internal/telemetry"
)

// Options tunes a Transport. The zero value is usable.
type Options struct {
	// Telemetry, when non-nil, gets live wire gauges registered on Bind:
	// wire_bytes_sent, wire_frames_sent, wire_bytes_recv,
	// wire_frames_recv, wire_reconnects, wire_drops.
	Telemetry *telemetry.Registry
	// DialBackoff is the initial redial delay after a failed connect;
	// it doubles per attempt up to 64x. Default 2ms.
	DialBackoff time.Duration
	// SocketBuffer, when positive, caps the kernel send/receive
	// buffers on every connection. Backpressure can only pace the
	// engine as far as the kernel lets it: on a lossy path where
	// connections die (and their buffered bytes with them), large
	// autotuned buffers let senders run megabytes ahead of what the
	// receiver will ever apply. 0 keeps the OS default.
	SocketBuffer int

	// Health, when non-nil, tracks the readiness transitions of the dist
	// node riding on this transport, for the /readyz endpoint. The
	// sockets ignore it; it lives here so a joiner can set it through
	// Join's Options parameter.
	Health *telemetry.Health
}

func (o Options) dialBackoff() time.Duration {
	if o.DialBackoff <= 0 {
		return 2 * time.Millisecond
	}
	return o.DialBackoff
}

// queueDepth is the per-destination outbound data frame queue (acks get
// four times as much): a full data queue blocks Send until the writer
// frees a slot.
const queueDepth = 256

// coalesceMax caps how many queued frames one writer flush batches into
// a single syscall.
const coalesceMax = 64

// WireStats is a point-in-time snapshot of a Transport's socket-level
// counters — the same block a NodeStats record carries.
type WireStats = telemetry.WireCounters

// link is the outbound side toward one destination node, drained by a
// dedicated writer goroutine that owns the connection and its
// redial/backoff state. Data and acks travel in separate queues: data
// enqueues with blocking backpressure so workers pace themselves to
// wire speed, while acks enqueue without ever blocking — acks are sent
// by the read loop that just delivered the batch, and a read loop that
// had to wait for its own outbound queue while that queue's drain
// depended on the peer's read loop doing the same would deadlock the
// ring, so acks get a reserved, drop-on-full lane with writer priority.
type link struct {
	addr      string
	dataQ     chan []byte
	ackQ      chan []byte
	everConn  bool // a connection has succeeded before (writer-local use)
	writeConn atomic.Pointer[net.TCPConn]
}

// Transport is a real-socket cluster.Transport. Each node of the cluster
// has a TCP address; the processes hosting a node pass its listener, and
// every process dials the full address list. Envelopes are length-prefix
// framed with a CRC over the body, coalesced into batched writes, and
// dropped (never blocked on) when a peer is unreachable — the engine's
// at-least-once retry layer turns those drops into delayed delivery.
type Transport struct {
	addrs     []string
	listeners []net.Listener // sparse: non-nil where this process hosts the node
	opts      Options

	deliver  func(int, cluster.Envelope)
	numNodes int
	links    []*link

	done  chan struct{}
	shut  atomic.Bool
	bound atomic.Bool
	wg    sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	bytesSent, framesSent atomic.Int64
	bytesRecv, framesRecv atomic.Int64
	reconnects            atomic.Int64
	drops                 atomic.Int64
	crcDrops              atomic.Int64
	decodeErrors          atomic.Int64
	queueHighWater        atomic.Int64
}

var _ cluster.Transport = (*Transport)(nil)
var _ cluster.FaultCounter = (*Transport)(nil)

// New builds a Transport over an address list (one entry per cluster
// node, in node-id order) and the listeners this process hosts, sparse
// in the same order. Ownership of the listeners passes to the Transport;
// Close closes them.
func New(listeners []net.Listener, addrs []string, opts Options) *Transport {
	t := &Transport{
		addrs:     addrs,
		listeners: listeners,
		opts:      opts,
		done:      make(chan struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	t.links = make([]*link, len(addrs))
	for i, a := range addrs {
		t.links[i] = &link{addr: a,
			dataQ: make(chan []byte, queueDepth),
			ackQ:  make(chan []byte, 4*queueDepth),
		}
	}
	return t
}

// NewLoopback hosts all n nodes in this process on 127.0.0.1 ephemeral
// ports: every envelope still crosses a real TCP socket. Intended for
// tests and single-machine experiments.
func NewLoopback(n int, opts Options) (*Transport, error) {
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				_ = l.Close()
			}
			return nil, err
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return New(listeners, addrs, opts), nil
}

// Addrs returns the cluster's address list, in node-id order.
func (t *Transport) Addrs() []string { return t.addrs }

// Bind starts the accept loops and one writer per destination. numNodes
// must match the address list the Transport was built with.
func (t *Transport) Bind(numNodes int, deliver func(int, cluster.Envelope)) {
	if numNodes != len(t.addrs) {
		panic("tcp: Bind numNodes does not match the transport's address list")
	}
	if !t.bound.CompareAndSwap(false, true) {
		panic("tcp: Bind called twice")
	}
	t.numNodes = numNodes
	t.deliver = deliver
	for node, ln := range t.listeners {
		if ln == nil {
			continue
		}
		t.wg.Add(1)
		go t.acceptLoop(node, ln)
	}
	for _, l := range t.links {
		t.wg.Add(1)
		go t.writer(l)
	}
	if reg := t.opts.Telemetry; reg != nil {
		gauge := func(c *atomic.Int64) func() float64 {
			return func() float64 { return float64(c.Load()) }
		}
		reg.RegisterGauge("wire_bytes_sent", gauge(&t.bytesSent))
		reg.RegisterGauge("wire_frames_sent", gauge(&t.framesSent))
		reg.RegisterGauge("wire_bytes_recv", gauge(&t.bytesRecv))
		reg.RegisterGauge("wire_frames_recv", gauge(&t.framesRecv))
		reg.RegisterGauge("wire_reconnects", gauge(&t.reconnects))
		reg.RegisterGauge("wire_drops", gauge(&t.drops))
		reg.RegisterGauge("wire_queue_high_water", gauge(&t.queueHighWater))
	}
}

// Send frames e and enqueues it toward node to. A data envelope meeting
// a full destination queue blocks until the writer frees a slot — that
// wait is the backpressure pacing workers (and the retry loop) to wire
// speed. The wait cannot become a hang: the writer drains its queue
// even while the peer is unreachable, discarding frames for the
// engine's retry accounting to re-send. An ack never blocks: it rides
// the reserved ack lane, and on the rare overflow is dropped (the
// peer's retry of the data batch re-earns it).
func (t *Transport) Send(from, to int, e cluster.Envelope) {
	if t.shut.Load() || to < 0 || to >= len(t.links) {
		return
	}
	b := make([]byte, frameLenSize, frameLenSize+1+cluster.EnvelopeWireSize(e)+frameCRCSize) //abcdlint:ignore hotpath -- one frame buffer per envelope batch, amortized over BatchSize slot updates
	//abcdlint:ignore hotpath -- amortized: one byte into the per-batch frame buffer sized above
	b = append(b, fEnvelope)
	b = cluster.AppendEnvelope(b, e) //abcdlint:ignore hotpath -- marshal into the per-batch frame buffer, amortized over BatchSize slot updates
	b = sealFrame(b)                 //abcdlint:ignore hotpath -- crc + length fixup once per batch frame
	l := t.links[to]
	if e.IsAck() {
		select {
		case l.ackQ <- b:
		default:
			t.drops.Add(1)
		}
		return
	}
	if depth := int64(len(l.dataQ)) + 1; depth > t.queueHighWater.Load() {
		// Racy max (two senders may both store), but the watermark only
		// ever moves up and an off-by-one-frame reading is harmless.
		t.queueHighWater.Store(depth)
	}
	select {
	case l.dataQ <- b:
	case <-t.done:
	}
}

// Close stops delivery: listeners and connections are shut down, writer
// and reader goroutines are joined, and any in-flight deliver call has
// returned by the time Close does.
func (t *Transport) Close() {
	if !t.shut.CompareAndSwap(false, true) {
		return
	}
	close(t.done)
	for _, ln := range t.listeners {
		if ln != nil {
			_ = ln.Close()
		}
	}
	for _, l := range t.links {
		if c := l.writeConn.Load(); c != nil {
			_ = c.Close()
		}
	}
	t.connMu.Lock()
	for c := range t.conns {
		_ = c.Close()
	}
	t.connMu.Unlock()
	if t.bound.Load() {
		t.wg.Wait()
	}
}

// FaultCounts folds this layer's losses into cluster.Stats: everything
// dropped here is re-sent by the engine, and TCP never duplicates.
func (t *Transport) FaultCounts() (dropped, duplicated int64) {
	return t.drops.Load(), 0
}

// WireStats snapshots the socket-level counters.
func (t *Transport) WireStats() WireStats {
	return WireStats{
		BytesSent: t.bytesSent.Load(), FramesSent: t.framesSent.Load(),
		BytesRecv: t.bytesRecv.Load(), FramesRecv: t.framesRecv.Load(),
		Reconnects:     t.reconnects.Load(),
		Drops:          t.drops.Load(),
		CRCDrops:       t.crcDrops.Load(),
		DecodeErrors:   t.decodeErrors.Load(),
		QueueHighWater: t.queueHighWater.Load(),
	}
}

// CutConns force-closes every currently established connection, send and
// receive side, without stopping the transport — the reconnect path must
// bring the cluster back. Test hook for the reconnect suite.
func (t *Transport) CutConns() {
	for _, l := range t.links {
		if c := l.writeConn.Load(); c != nil {
			_ = c.Close()
		}
	}
	t.connMu.Lock()
	for c := range t.conns {
		_ = c.Close()
	}
	t.connMu.Unlock()
}

// track registers conn for Close-time teardown. It reports false when
// the transport already shut down, in which case the caller must close
// conn itself.
func (t *Transport) track(conn net.Conn) bool {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	if t.shut.Load() {
		return false
	}
	t.conns[conn] = struct{}{}
	return true
}

func (t *Transport) acceptLoop(node int, ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by Close
		}
		if !t.track(conn) { // Close raced the accept
			_ = conn.Close()
			return
		}
		if sb := t.opts.SocketBuffer; sb > 0 {
			if tc, ok := conn.(*net.TCPConn); ok {
				_ = tc.SetReadBuffer(sb)
			}
		}
		t.wg.Add(1)
		go t.readLoop(node, conn)
	}
}

// readLoop decodes envelope frames off one accepted connection and
// delivers them to node on this goroutine. Any framing, CRC, or decode error
// kills the connection; the peer's writer redials.
func (t *Transport) readLoop(node int, conn net.Conn) {
	defer func() {
		_ = conn.Close()
		t.connMu.Lock()
		delete(t.conns, conn)
		t.connMu.Unlock()
		t.wg.Done()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		body, err := readFrame(br)
		if errors.Is(err, errCRCMismatch) {
			// Damaged but frame-aligned: lose the frame, keep the
			// connection (and everything buffered behind it). The
			// sender's retry accounting re-earns the lost envelope.
			t.crcDrops.Add(1)
			obslog.L().Warn("frame dropped on crc mismatch",
				"event", "wire.crc_drop", "node", node, "err", err)
			continue
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !t.shut.Load() {
				t.decodeErrors.Add(1)
				obslog.L().Warn("connection killed on stream desync",
					"event", "wire.desync", "node", node, "err", err)
			}
			return
		}
		t.bytesRecv.Add(int64(len(body) + frameLenSize + frameCRCSize))
		t.framesRecv.Add(1)
		if body[0] != fEnvelope {
			t.decodeErrors.Add(1)
			return
		}
		e, err := cluster.DecodeEnvelope(body[1:])
		if err != nil || e.From() < 0 || e.From() >= t.numNodes {
			t.decodeErrors.Add(1)
			return
		}
		if t.shut.Load() {
			return
		}
		t.deliver(node, e)
	}
}

// writer drains one link's queue into its connection, coalescing every
// queued frame at flush time into a single buffered write. It owns the
// dial/redial lifecycle for the link — and it never stops draining:
// while the peer is unreachable (dial failing, next attempt gated by
// the backoff) queued frames are discarded so that Send's blocking
// backpressure can never turn into a hang on a dead peer. The engine's
// retry accounting re-sends everything discarded here.
func (t *Transport) writer(l *link) {
	defer t.wg.Done()
	var conn *net.TCPConn
	var bw *bufio.Writer
	var nextDial time.Time
	backoff := t.opts.dialBackoff()
	maxBackoff := 64 * t.opts.dialBackoff()
	batch := make([][]byte, 0, coalesceMax)
	for {
		batch = batch[:0]
		select {
		case <-t.done:
			return
		case f := <-l.ackQ:
			batch = append(batch, f)
		case f := <-l.dataQ:
			batch = append(batch, f)
		}
		// Coalesce whatever else is queued, acks first: they unblock the
		// peer's retry accounting and must never sit behind bulk data.
	ackDrain:
		for len(batch) < cap(batch) {
			select {
			case f := <-l.ackQ:
				batch = append(batch, f)
			default:
				break ackDrain
			}
		}
	coalesce:
		for len(batch) < cap(batch) {
			select {
			case f := <-l.dataQ:
				batch = append(batch, f)
			default:
				break coalesce
			}
		}
		if conn == nil {
			if !nextDial.IsZero() && time.Now().Before(nextDial) {
				t.drops.Add(int64(len(batch)))
				continue
			}
			conn = t.dialLink(l)
			if conn == nil {
				if t.shut.Load() {
					return
				}
				nextDial = time.Now().Add(backoff)
				if backoff < maxBackoff {
					backoff *= 2
				}
				t.drops.Add(int64(len(batch)))
				continue
			}
			backoff = t.opts.dialBackoff()
			nextDial = time.Time{}
			bw = bufio.NewWriterSize(conn, 64<<10)
		}
		var err error
		var nb int
		for _, f := range batch {
			if _, err = bw.Write(f); err != nil {
				break
			}
			nb += len(f)
		}
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			_ = conn.Close()
			l.writeConn.Store(nil)
			conn = nil
			// The batch is gone; the engine's unacked bookkeeping
			// re-sends every envelope in it after its retransmission timeout.
			t.drops.Add(int64(len(batch)))
			continue
		}
		t.bytesSent.Add(int64(nb))
		t.framesSent.Add(int64(len(batch)))
	}
}

// dialLink makes one connection attempt to l's peer. A success that
// follows any earlier established connection counts as a reconnect; a
// failure returns nil and leaves the backoff pacing to the writer.
func (t *Transport) dialLink(l *link) *net.TCPConn {
	d := net.Dialer{Timeout: time.Second}
	conn, err := d.Dial("tcp", l.addr)
	if err != nil {
		return nil
	}
	if l.everConn {
		t.reconnects.Add(1)
		obslog.L().Info("peer connection re-established",
			"event", "wire.reconnect", "peer", l.addr)
	}
	l.everConn = true
	tc := conn.(*net.TCPConn)
	if sb := t.opts.SocketBuffer; sb > 0 {
		_ = tc.SetWriteBuffer(sb)
	}
	l.writeConn.Store(tc)
	if t.shut.Load() { // Close raced the dial
		_ = tc.Close()
		return nil
	}
	return tc //abcdlint:ignore publish -- the store only exposes Close to the shutdown path; this writer goroutine stays the sole user of the conn's write side
}
