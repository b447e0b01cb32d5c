package telemetry

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Event kinds in a ring record. Slices are the PR 3 block-lifecycle
// events; flows are the cross-node message correlation events of
// DESIGN.md §13: a send on one node and the matching recv on another
// share a flow id derived from (source node, envelope seq), so a merged
// multi-node trace draws an arrow between them in Perfetto.
const (
	kindSlice byte = iota
	kindFlowSend
	kindFlowRecv
)

// traceEvent is one fixed-size record in a worker's ring buffer; the hot
// path writes these, never strings or JSON.
type traceEvent struct {
	kind  byte
	stage Stage
	block int32 // slice: block id; flow: peer node id
	start int64 // ns since trace start
	dur   int64 // slice: duration ns; flow: envelope sequence
}

// ring is a single-producer single-consumer event buffer. The producer is
// the shard's worker; the consumer is the tracer's flusher goroutine.
// head and tail are atomic, so the producer's event write happens-before
// the consumer's read (publish via head), and slot reuse happens-after
// the consumer's tail advance — lock-free in both directions. A full
// ring drops the event and counts the drop: tracing must never apply
// backpressure to the engine.
type ring struct {
	worker  int32
	sample  int64
	events  []traceEvent
	head    atomic.Int64 // producer cursor
	tail    atomic.Int64 // consumer cursor
	dropped atomic.Int64
}

// ringCap is each worker's event capacity between flushes. At the 50ms
// flush cadence a worker would need >80k traced events/sec to overflow;
// sampled tracing stays orders of magnitude below that.
const ringCap = 4096

// record appends one event if the block is in the trace sample.
//
//abcd:hotpath
func (r *ring) record(st Stage, block int, start, dur int64) {
	if r.sample > 1 && int64(block)%r.sample != 0 {
		return
	}
	r.push(traceEvent{kind: kindSlice, stage: st, block: int32(block), start: start, dur: dur})
}

// recordFlow appends one flow endpoint, sampled by envelope sequence so
// the send side and the recv side of the same message make the same
// keep/drop decision from their own local state.
//
//abcd:hotpath
func (r *ring) recordFlow(kind byte, peer int, seq uint64, ts int64) {
	if r.sample > 1 && int64(seq)%r.sample != 0 {
		return
	}
	r.push(traceEvent{kind: kind, block: int32(peer), start: ts, dur: int64(seq)})
}

//abcd:hotpath
func (r *ring) push(e traceEvent) {
	h, t := r.head.Load(), r.tail.Load()
	if h-t >= int64(len(r.events)) {
		r.dropped.Add(1)
		return
	}
	r.events[h%int64(len(r.events))] = e
	r.head.Store(h + 1)
}

// Tracer collects sampled block-lifecycle events from every shard's ring
// and writes them as Chrome trace-event JSON — loadable in
// chrome://tracing or https://ui.perfetto.dev. One trace event is
// emitted per (stage, block) occurrence: "X" complete events with the
// worker as tid, so the timeline shows each worker's gather/scatter/wait
// interleaving and each sampled block can be followed across stages.
// Flow records additionally emit Perfetto flow-arrow pairs (ph "s"/"f")
// anchored to tiny marker slices.
type Tracer struct {
	sample int64

	mu       sync.Mutex // guards everything below (flusher + Close + SetProcess)
	w        *bufio.Writer
	buf      []byte
	rings    []*ring
	wrote    bool // at least one event emitted (comma management)
	started  bool // header + process metadata emitted
	procPid  int64
	procName string

	stop chan struct{}
	done chan struct{}
}

// NewTracer starts a tracer writing to w. sampleEvery selects every Nth
// block id for tracing (1 traces every block); sampling is by block id,
// so a sampled block's whole lifecycle — queue wait, gather, scatter —
// appears in the trace, not a random subset of stages. The
// caller must Close the tracer after the run to flush the tail and
// terminate the JSON.
//
// The JSON header (and the process metadata record) is written lazily at
// the first flush, so SetProcess can rename the process after creation —
// a distributed joiner learns its node id only at assignment time.
func NewTracer(w io.Writer, sampleEvery int) *Tracer {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	t := &Tracer{
		sample:   int64(sampleEvery),
		w:        bufio.NewWriterSize(w, 1<<16),
		procPid:  1,
		procName: "graphabcd",
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go t.flushLoop()
	return t
}

// SetProcess names this trace shard's Perfetto process. In distributed
// runs every node passes its node id as pid, so merged per-node shards
// show up as distinct process tracks (-trace-merge relies on this).
// Effective only before the first flush writes the header; call it right
// after the tracer is created, before the run starts.
func (t *Tracer) SetProcess(pid int, name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		return
	}
	t.procPid = int64(pid)
	t.procName = name
}

// newRing attaches one worker ring; called from Registry.Shards.
func (t *Tracer) newRing(worker int32) *ring {
	r := &ring{worker: worker, sample: t.sample, events: make([]traceEvent, ringCap)}
	t.mu.Lock()
	t.rings = append(t.rings, r)
	t.mu.Unlock()
	return r
}

// flushLoop drains every ring on a fixed cadence, off the hot path.
func (t *Tracer) flushLoop() {
	defer close(t.done)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
			t.flush()
		}
	}
}

// flush drains all rings and writes their events.
func (t *Tracer) flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Defer the header until the first event is actually pending: an idle
	// pre-run flush must not latch the process identity while SetProcess
	// has yet to run — a distributed coordinator can sit for seconds
	// waiting on joiners before its node id reaches the tracer.
	if !t.started {
		pending := false
		for _, r := range t.rings {
			if r.tail.Load() < r.head.Load() {
				pending = true
				break
			}
		}
		if !pending {
			return
		}
	}
	t.ensureHeader()
	for _, r := range t.rings {
		h, tl := r.head.Load(), r.tail.Load()
		for ; tl < h; tl++ {
			t.writeEvent(r.worker, &r.events[tl%int64(len(r.events))])
		}
		r.tail.Store(tl)
	}
}

// ensureHeader writes the JSON array opener and the process metadata
// record once; callers hold mu.
func (t *Tracer) ensureHeader() {
	if t.started {
		return
	}
	t.started = true
	b := t.buf[:0]
	b = append(b, `[{"name":"process_name","ph":"M","pid":`...)
	b = strconv.AppendInt(b, t.procPid, 10)
	b = append(b, `,"args":{"name":"`...)
	b = append(b, t.procName...)
	b = append(b, `"}}`...)
	t.buf = b
	_, _ = t.w.Write(b)
	t.wrote = true
}

// writeEvent appends one Chrome trace event. Timestamps and durations are
// microseconds (the trace-event spec's unit), written with strconv into a
// reused buffer.
func (t *Tracer) writeEvent(worker int32, e *traceEvent) {
	if e.kind != kindSlice {
		t.writeFlow(worker, e)
		return
	}
	b := t.buf[:0]
	if t.wrote {
		b = append(b, ',', '\n')
	}
	b = append(b, `{"name":"`...)
	b = append(b, e.stage.Name()...)
	b = append(b, `","cat":"block","ph":"X","ts":`...)
	b = appendMicros(b, e.start)
	b = append(b, `,"dur":`...)
	b = appendMicros(b, e.dur)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, t.procPid, 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(worker), 10)
	b = append(b, `,"args":{"block":`...)
	b = strconv.AppendInt(b, int64(e.block), 10)
	b = append(b, `}}`...)
	t.buf = b
	_, _ = t.w.Write(b)
	t.wrote = true
}

// writeFlow renders one flow endpoint as a 1µs anchor slice plus the
// Perfetto flow event bound to it. The flow id is the same on both ends:
// (source node << 32) | (envelope seq & 0xffffffff) — the source node is
// this process for sends and the peer for recvs, so the arrow connects
// sender to receiver across merged shards.
func (t *Tracer) writeFlow(worker int32, e *traceEvent) {
	seq := uint64(e.dur)
	var srcNode, name string
	var flowPh byte
	if e.kind == kindFlowSend {
		srcNode, name, flowPh = "self", "send", 's'
	} else {
		srcNode, name, flowPh = "peer", "recv", 'f'
	}
	var src int64
	if srcNode == "self" {
		src = t.procPid
	} else {
		src = int64(e.block)
	}
	id := src<<32 | int64(seq&0xffffffff)

	b := t.buf[:0]
	if t.wrote {
		b = append(b, ',', '\n')
	}
	// Anchor slice: flows must begin and end inside a slice on the track.
	b = append(b, `{"name":"`...)
	b = append(b, name...)
	b = append(b, `","cat":"net","ph":"X","ts":`...)
	b = appendMicros(b, e.start)
	b = append(b, `,"dur":1,"pid":`...)
	b = strconv.AppendInt(b, t.procPid, 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(worker), 10)
	b = append(b, `,"args":{"peer":`...)
	b = strconv.AppendInt(b, int64(e.block), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, `}},`...)
	b = append(b, '\n')
	// Flow event at the same instant, bound to the enclosing slice.
	b = append(b, `{"name":"batch","cat":"net","ph":"`...)
	b = append(b, flowPh)
	b = append(b, '"')
	if flowPh == 'f' {
		b = append(b, `,"bp":"e"`...)
	}
	b = append(b, `,"id":`...)
	b = strconv.AppendInt(b, id, 10)
	b = append(b, `,"ts":`...)
	b = appendMicros(b, e.start)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, t.procPid, 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(worker), 10)
	b = append(b, '}')
	t.buf = b
	_, _ = t.w.Write(b)
	t.wrote = true
}

// appendMicros renders ns as fractional microseconds with ns precision.
func appendMicros(b []byte, ns int64) []byte {
	b = strconv.AppendInt(b, ns/1e3, 10)
	frac := ns % 1e3
	if frac < 0 {
		frac = 0
	}
	b = append(b, '.')
	b = append(b, byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	return b
}

// Dropped returns how many events were lost to full rings.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, r := range t.rings {
		n += r.dropped.Load()
	}
	return n
}

// Close stops the flusher, drains the rings one final time, terminates
// the JSON array, and flushes the buffered writer. The tracer must not
// receive events after Close; stop the run first.
func (t *Tracer) Close() error {
	close(t.stop)
	<-t.done
	t.flush()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureHeader() // an event-free shard still terminates as valid JSON
	_, _ = t.w.WriteString("]\n")
	return t.w.Flush()
}
