// Package binfmt is the one CRC'd section codec behind the repository's
// binary files — GABS/GABZ graph snapshots (internal/graph) and GABC
// checkpoint state files (internal/checkpoint) — and the pair of
// allocation clamps every decoder of untrusted bytes sizes its arrays
// through (DESIGN.md §10).
//
// A file is a format-specific header followed by sections, each
//
//	tag u32 | payloadLen u64 | payload | crc u32      (little-endian)
//
// where crc is the IEEE CRC-32 of the payload. The Writer streams
// fixed-width arrays through one 64 KiB staging block, paying one CRC
// update and one buffered write per block. The Reader checks tag and
// length, reads payloads in bounded chunks with an incremental CRC, and
// never sizes an allocation from a header claim: arrays grow only as
// payload bytes actually arrive.
package binfmt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	// SecHdrLen is the size of a section header (tag u32, length u64).
	SecHdrLen = 4 + 8
	// CRCLen is the size of the CRC trailing every section payload.
	CRCLen = 4

	// blockSize is the Writer's staging block: each full block takes one
	// CRC update and one buffered write, keeping the CRC on its fast
	// block path without a section-sized buffer.
	blockSize = 64 << 10
	// chunkSize bounds one Reader payload read.
	chunkSize = 1 << 20
)

// PresizeCap bounds a decoded array's initial capacity: enough for want
// entries, capped so a hostile header can cost at most a few megabytes
// before real payload bytes must arrive (growth past the cap is paid only
// as data is actually delivered). abcdlint's boundalloc rule recognizes
// the name.
func PresizeCap(want, entryBytes int) int {
	const maxUpfront = 4 << 20
	if want < 0 {
		return 0
	}
	if want > maxUpfront/entryBytes {
		return maxUpfront / entryBytes
	}
	return want
}

// GrowEarned makes room for need more entries without trusting the
// header: capacity quadruples from what delivered payload bytes have
// already earned, capped at the claimed want. A lying header therefore
// over-allocates at most 4x the bytes actually read, while an honest bulk
// decode reaches full size in O(1) growth steps instead of re-copying the
// array on append's fine-grained growth schedule.
func GrowEarned[T any](s []T, need, want int) []T {
	if len(s)+need <= cap(s) {
		return s
	}
	newCap := 4 * cap(s)
	if newCap < len(s)+need {
		newCap = len(s) + need
	}
	if want > len(s)+need && newCap > want {
		newCap = want
	}
	out := make([]T, len(s), newCap)
	copy(out, s)
	return out
}

// Writer emits a header and sections through a 1 MiB buffer, keeping the
// first write error; Flush reports it.
type Writer struct {
	bw  *bufio.Writer
	err error
	blk []byte // staging block for fixed-width sections
	sum uint32 // running CRC of the open fixed-width section
}

// NewWriter returns a Writer buffering onto w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<20), blk: make([]byte, blockSize)}
}

// Reset points w at dst with its error cleared, keeping its buffers: an
// owner that encodes again and again allocates them once.
func (w *Writer) Reset(dst io.Writer) {
	w.bw.Reset(dst)
	w.err = nil
}

// Raw writes b unframed: a format's own header.
func (w *Writer) Raw(b []byte) {
	if w.err == nil {
		_, w.err = w.bw.Write(b)
	}
}

// Flush returns the first write error, or flushes the buffered bytes.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// begin writes a section header and resets the running CRC.
func (w *Writer) begin(tag uint32, payloadLen int) {
	var h [SecHdrLen]byte
	binary.LittleEndian.PutUint32(h[0:4], tag)
	binary.LittleEndian.PutUint64(h[4:12], uint64(payloadLen))
	w.Raw(h[:])
	w.sum = 0
}

// emit writes one encoded stretch of the open section's payload.
func (w *Writer) emit(b []byte) {
	w.sum = crc32.Update(w.sum, crc32.IEEETable, b)
	w.Raw(b)
}

// end writes the open section's CRC.
func (w *Writer) end() {
	var b [CRCLen]byte
	binary.LittleEndian.PutUint32(b[:], w.sum)
	w.Raw(b[:])
}

// Bytes writes one section whose payload is b.
func (w *Writer) Bytes(tag uint32, b []byte) {
	w.begin(tag, len(b))
	w.emit(b)
	w.end()
}

// The fixed-width writers below each encode one staging block at a time
// in a plain loop and emit it. The loops are written out per element
// kind on purpose: behind a per-block callback the compiler stopped
// inlining the byte-order stores, and a type-parameterized loop measured
// about twice as slow.

// U64s writes vals as a section of little-endian u64s.
func (w *Writer) U64s(tag uint32, vals []uint64) {
	w.begin(tag, 8*len(vals))
	for len(vals) > 0 {
		k := min(len(vals), blockSize/8)
		dst := w.blk[:8*k]
		for i, v := range vals[:k] {
			binary.LittleEndian.PutUint64(dst[8*i:], v)
		}
		w.emit(dst)
		vals = vals[k:]
	}
	w.end()
}

// I64s writes vals as a section of little-endian two's-complement u64s.
func (w *Writer) I64s(tag uint32, vals []int64) {
	w.begin(tag, 8*len(vals))
	for len(vals) > 0 {
		k := min(len(vals), blockSize/8)
		dst := w.blk[:8*k]
		for i, v := range vals[:k] {
			binary.LittleEndian.PutUint64(dst[8*i:], uint64(v))
		}
		w.emit(dst)
		vals = vals[k:]
	}
	w.end()
}

// U32s writes vals as a section of little-endian u32s.
func (w *Writer) U32s(tag uint32, vals []uint32) {
	w.begin(tag, 4*len(vals))
	for len(vals) > 0 {
		k := min(len(vals), blockSize/4)
		dst := w.blk[:4*k]
		for i, v := range vals[:k] {
			binary.LittleEndian.PutUint32(dst[4*i:], v)
		}
		w.emit(dst)
		vals = vals[k:]
	}
	w.end()
}

// F32s writes vals as a section of little-endian float32 bit patterns.
func (w *Writer) F32s(tag uint32, vals []float32) {
	w.begin(tag, 4*len(vals))
	for len(vals) > 0 {
		k := min(len(vals), blockSize/4)
		dst := w.blk[:4*k]
		for i, v := range vals[:k] {
			binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
		}
		w.emit(dst)
		vals = vals[k:]
	}
	w.end()
}

// Reader decodes consecutive sections, verifying tag, length and CRC.
// Every error it returns starts with the format's prefix.
type Reader struct {
	br      *bufio.Reader
	prefix  string // "graph: snapshot", "checkpoint:"
	scratch []byte

	// The open section: its tag, payload bytes not yet read, running CRC.
	tag  uint32
	left int64
	sum  uint32
}

// NewReader returns a Reader over r whose errors start with prefix. Its
// buffer is deliberately small: it serves the section headers and CRCs,
// while the large payload reads exceed it and pass straight through to r
// with no intermediate copy.
func NewReader(r io.Reader, prefix string) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<14), prefix: prefix}
}

// Header reads a format's own fixed header into b.
func (r *Reader) Header(b []byte) error {
	_, err := io.ReadFull(r.br, b)
	return err
}

// open reads a section header, checks its tag, and returns the payload
// length. want >= 0 is the exact length the caller's already-validated
// counts dictate; want < 0 admits any length.
func (r *Reader) open(tag uint32, want int64) (int64, error) {
	var h [SecHdrLen]byte
	if _, err := io.ReadFull(r.br, h[:]); err != nil {
		return 0, fmt.Errorf("%s section %d header: %w", r.prefix, tag, err)
	}
	if got := binary.LittleEndian.Uint32(h[0:4]); got != tag {
		return 0, fmt.Errorf("%s section tag %d, want %d", r.prefix, got, tag)
	}
	l := binary.LittleEndian.Uint64(h[4:12])
	if want >= 0 && l != uint64(want) {
		return 0, fmt.Errorf("%s section %d is %d bytes, want %d", r.prefix, tag, l, want)
	}
	if l > math.MaxInt64 {
		return 0, fmt.Errorf("%s section %d length %d out of range", r.prefix, tag, l)
	}
	r.tag, r.left, r.sum = tag, int64(l), 0
	return int64(l), nil
}

// next returns the open section's next payload chunk: at most 1 MiB, and
// whole elements of any width dividing that. Once the payload is
// consumed it verifies the trailing CRC and returns an empty chunk.
func (r *Reader) next() ([]byte, error) {
	if r.left == 0 {
		var c [CRCLen]byte
		if _, err := io.ReadFull(r.br, c[:]); err != nil {
			return nil, fmt.Errorf("%s section %d checksum: %w", r.prefix, r.tag, err)
		}
		if got := binary.LittleEndian.Uint32(c[:]); got != r.sum {
			return nil, fmt.Errorf("%s section %d checksum mismatch (file %08x, data %08x)", r.prefix, r.tag, got, r.sum)
		}
		return nil, nil
	}
	if r.scratch == nil {
		r.scratch = make([]byte, chunkSize)
	}
	chunk := r.scratch[:min(r.left, chunkSize)]
	if _, err := io.ReadFull(r.br, chunk); err != nil {
		return nil, fmt.Errorf("%s section %d payload: %w", r.prefix, r.tag, err)
	}
	r.sum = crc32.Update(r.sum, crc32.IEEETable, chunk)
	r.left -= int64(len(chunk))
	return chunk, nil
}

// Whole reads a variable-length section and returns its payload (for
// payloads decoded with look-ahead, where chunked decoding is not
// practical).
func (r *Reader) Whole(tag uint32) ([]byte, error) { return r.raw(tag, -1) }

// Bytes reads a section of exactly count raw bytes.
func (r *Reader) Bytes(tag uint32, count int) ([]byte, error) { return r.raw(tag, int64(count)) }

// raw reads a byte section of want bytes (any length if want < 0).
func (r *Reader) raw(tag uint32, want int64) ([]byte, error) {
	l, err := r.open(tag, want)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, PresizeCap(int(l), 1))
	for {
		b, err := r.next()
		if err != nil || len(b) == 0 {
			return out, err
		}
		out = GrowEarned(out, len(b), int(l))
		out = append(out, b...)
	}
}

// The fixed-width readers below decode each chunk in a plain loop into a
// local slice, written out per element kind for the reason the writers
// are.

// U64s reads a section of exactly count little-endian u64s.
func (r *Reader) U64s(tag uint32, count int) ([]uint64, error) {
	if _, err := r.open(tag, 8*int64(count)); err != nil {
		return nil, err
	}
	out := make([]uint64, 0, PresizeCap(count, 8))
	for {
		b, err := r.next()
		if err != nil || len(b) == 0 {
			return out, err
		}
		out = GrowEarned(out, len(b)/8, count)
		for i := 0; i+8 <= len(b); i += 8 {
			out = append(out, binary.LittleEndian.Uint64(b[i:]))
		}
	}
}

// I64s reads a section of exactly count little-endian two's-complement
// u64s.
func (r *Reader) I64s(tag uint32, count int) ([]int64, error) {
	if _, err := r.open(tag, 8*int64(count)); err != nil {
		return nil, err
	}
	out := make([]int64, 0, PresizeCap(count, 8))
	for {
		b, err := r.next()
		if err != nil || len(b) == 0 {
			return out, err
		}
		out = GrowEarned(out, len(b)/8, count)
		for i := 0; i+8 <= len(b); i += 8 {
			out = append(out, int64(binary.LittleEndian.Uint64(b[i:])))
		}
	}
}

// U32s reads a section of exactly count little-endian u32s.
func (r *Reader) U32s(tag uint32, count int) ([]uint32, error) {
	if _, err := r.open(tag, 4*int64(count)); err != nil {
		return nil, err
	}
	out := make([]uint32, 0, PresizeCap(count, 4))
	for {
		b, err := r.next()
		if err != nil || len(b) == 0 {
			return out, err
		}
		out = GrowEarned(out, len(b)/4, count)
		for i := 0; i+4 <= len(b); i += 4 {
			out = append(out, binary.LittleEndian.Uint32(b[i:]))
		}
	}
}

// F32s reads a section of exactly count little-endian float32 bit
// patterns.
func (r *Reader) F32s(tag uint32, count int) ([]float32, error) {
	if _, err := r.open(tag, 4*int64(count)); err != nil {
		return nil, err
	}
	out := make([]float32, 0, PresizeCap(count, 4))
	for {
		b, err := r.next()
		if err != nil || len(b) == 0 {
			return out, err
		}
		out = GrowEarned(out, len(b)/4, count)
		for i := 0; i+4 <= len(b); i += 4 {
			out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(b[i:])))
		}
	}
}
