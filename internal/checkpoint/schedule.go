package checkpoint

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"graphabcd/internal/binfmt"
)

// Schedule recording for deterministic replay: the engine appends each
// picked block id; core.ReplaySchedule re-executes the sequence
// single-threaded with fused gather-apply-scatter, so every update reads
// exactly the values the previous recorded step published.
//
// Format ("GABR", version 1, little-endian):
//
//	magic[4] "GABR" | version u32
//	block ids, u32 each, in issue order
//	trailer: count u64 | crc u32 (IEEE CRC-32 of the id bytes)
//
// The trailer makes truncation detectable: a crash mid-write loses the
// trailer, and ReadSchedule refuses the file rather than replaying a
// silently shortened schedule.
const (
	schedMagic   = "GABR"
	schedVersion = 1
	schedHdrLen  = 4 + 4
	schedTrlLen  = 8 + 4
)

// schedRingCap is the recorder's ring capacity (power of two). The
// producer is the engine's pick, one worker at a time; unlike the tracer's ring a full
// ring blocks instead of dropping — a dropped id would corrupt the
// replay — so the capacity only has to cover flusher latency.
const schedRingCap = 1 << 14

// ScheduleRecorder captures a run's block schedule through the same
// single-producer single-consumer ring shape as the telemetry tracer:
// the producer writes ids with two atomic cursors and no locks, a
// background flusher drains to the writer on a fixed cadence, and Close
// drains the tail and seals the trailer.
type ScheduleRecorder struct {
	ids  []uint32
	head atomic.Int64 // producer cursor
	tail atomic.Int64 // consumer cursor

	w     *bufio.Writer
	crc   hash.Hash32
	count uint64
	err   atomic.Pointer[error]

	stop chan struct{}
	done chan struct{}
}

// NewScheduleRecorder starts a recorder writing to w. The caller must
// Close it after the run to seal the trailer; an unsealed file will not
// replay.
func NewScheduleRecorder(w io.Writer) *ScheduleRecorder {
	r := &ScheduleRecorder{
		ids:  make([]uint32, schedRingCap),
		w:    bufio.NewWriterSize(w, 1<<16),
		crc:  crc32.NewIEEE(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	var hdr [schedHdrLen]byte
	copy(hdr[:4], schedMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], schedVersion)
	if _, err := r.w.Write(hdr[:]); err != nil {
		r.err.CompareAndSwap(nil, &err)
	}
	go r.flushLoop()
	return r
}

// Record appends one block id. Calls must not overlap (one producer at
// a time); when the ring is full it yields until the flusher catches up
// rather than dropping.
func (r *ScheduleRecorder) Record(b int) {
	v := uint32(b)
	for {
		h, t := r.head.Load(), r.tail.Load()
		if h-t < int64(len(r.ids)) {
			r.ids[h%int64(len(r.ids))] = v
			r.head.Store(h + 1)
			return
		}
		if r.err.Load() != nil {
			return // sink failed; Close will surface the error
		}
		runtime.Gosched()
	}
}

// flushLoop drains the ring on a fixed cadence, off the scheduling loop.
func (r *ScheduleRecorder) flushLoop() {
	defer close(r.done)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			r.flush()
		}
	}
}

// flush drains buffered ids to the writer. Called only from the flusher
// goroutine and, after it has stopped, from Close.
func (r *ScheduleRecorder) flush() {
	h, t := r.head.Load(), r.tail.Load()
	var b [4]byte
	for ; t < h; t++ {
		binary.LittleEndian.PutUint32(b[:], r.ids[t%int64(len(r.ids))])
		_, _ = r.crc.Write(b[:]) // hash.Hash.Write never fails
		if _, err := r.w.Write(b[:]); err != nil {
			r.err.CompareAndSwap(nil, &err)
		}
		r.count++
	}
	r.tail.Store(t)
}

// Close stops the flusher, drains the tail, and seals the trailer. The
// recorder must not receive ids after Close; stop the run first.
func (r *ScheduleRecorder) Close() error {
	close(r.stop)
	<-r.done
	r.flush()
	var trl [schedTrlLen]byte
	binary.LittleEndian.PutUint64(trl[0:8], r.count)
	binary.LittleEndian.PutUint32(trl[8:12], r.crc.Sum32())
	if _, err := r.w.Write(trl[:]); err != nil {
		r.err.CompareAndSwap(nil, &err)
	}
	if err := r.w.Flush(); err != nil {
		r.err.CompareAndSwap(nil, &err)
	}
	if errp := r.err.Load(); errp != nil {
		return *errp
	}
	return nil
}

// ReadSchedule decodes a sealed schedule recording and verifies the
// trailer: id count and CRC must both match, so truncated or bit-flipped
// recordings are refused. Block ids are validated against numBlocks.
func ReadSchedule(r io.Reader, numBlocks int) ([]uint32, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: schedule: %w", err)
	}
	if len(raw) < schedHdrLen+schedTrlLen {
		return nil, fmt.Errorf("checkpoint: schedule truncated at %d bytes", len(raw))
	}
	if string(raw[:4]) != schedMagic {
		return nil, fmt.Errorf("checkpoint: bad schedule magic %q", raw[:4])
	}
	if v := binary.LittleEndian.Uint32(raw[4:8]); v != schedVersion {
		return nil, fmt.Errorf("checkpoint: unsupported schedule version %d (have %d)", v, schedVersion)
	}
	body := raw[schedHdrLen : len(raw)-schedTrlLen]
	trl := raw[len(raw)-schedTrlLen:]
	if len(body)%4 != 0 {
		return nil, fmt.Errorf("checkpoint: schedule body of %d bytes is not whole ids", len(body))
	}
	count := binary.LittleEndian.Uint64(trl[0:8])
	if count != uint64(len(body)/4) {
		return nil, fmt.Errorf("checkpoint: schedule trailer claims %d ids, body has %d (truncated recording?)", count, len(body)/4)
	}
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trl[8:12]); got != want {
		return nil, fmt.Errorf("checkpoint: schedule checksum mismatch (file %08x, data %08x)", want, got)
	}
	out := make([]uint32, 0, binfmt.PresizeCap(len(body)/4, 4))
	for i := 0; i+4 <= len(body); i += 4 {
		b := binary.LittleEndian.Uint32(body[i:])
		if int64(b) >= int64(numBlocks) {
			return nil, fmt.Errorf("checkpoint: schedule id %d outside %d blocks", b, numBlocks)
		}
		out = append(out, b)
	}
	return out, nil
}
