package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"graphabcd/internal/binfmt"
)

// Snapshot format: the dual CSC/CSR layout serialized once so reloading a
// graph is O(m) sequential reads instead of a text parse plus a rebuild.
//
//	header (24 bytes, little-endian):
//	    magic[4]    "GABS" (plain) or "GABZ" (varint-compressed sections)
//	    version u32 currently 1
//	    n       u64 vertex count
//	    m       u64 edge count
//	sections, in fixed order, in the internal/binfmt framing
//	(tag u32 | payloadLen u64 | payload | crc32 u32):
//	    tags 1 inOff, 2 inSrc, 3 inW, 4 outOff, 5 outDst, 6 outPos
//
// Plain payloads are the raw little-endian arrays: offsets as u64
// (n+1 entries), inSrc/outDst as u32, inW as f32 bit patterns, outPos as
// u64. Compressed payloads exploit the layout's sort order: offsets are
// encoded as uvarint degree deltas, and inSrc, outDst, and outPos are
// per-vertex ascending sequences (CSC slots sort by (dst, src); a source's
// out-edges sort by slot), so each is delta-uvarint encoded with the delta
// reset at every vertex boundary. Weights are raw f32 either way.
//
// The reader never trusts header-declared sizes for allocation: arrays
// grow with the bytes actually delivered, so a corrupt header yields an
// "unexpected EOF" error, not a huge allocation.
const (
	snapshotMagic     = "GABS"
	snapshotMagicZ    = "GABZ"
	snapshotVersion   = 1
	snapshotHeaderLen = 4 + 4 + 8 + 8
)

// Section tags, in file order.
const (
	secInOff uint32 = 1 + iota
	secInSrc
	secInW
	secOutOff
	secOutDst
	secOutPos
)

// IsSnapshotMagic reports whether b begins with a snapshot magic, the
// format sniff used by Load.
func IsSnapshotMagic(b []byte) bool {
	if len(b) < 4 {
		return false
	}
	s := string(b[:4])
	return s == snapshotMagic || s == snapshotMagicZ
}

// parseSnapshotHeader decodes a snapshot header. It reports the vertex
// and edge counts and whether the sections are varint-compressed.
func parseSnapshotHeader(hdr []byte) (n, m int64, compressed bool, err error) {
	if len(hdr) < snapshotHeaderLen {
		return 0, 0, false, fmt.Errorf("graph: snapshot header truncated at %d bytes", len(hdr))
	}
	switch string(hdr[:4]) {
	case snapshotMagic:
	case snapshotMagicZ:
		compressed = true
	default:
		return 0, 0, false, fmt.Errorf("graph: bad snapshot magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != snapshotVersion {
		return 0, 0, false, fmt.Errorf("graph: unsupported snapshot version %d (have %d)", v, snapshotVersion)
	}
	un := binary.LittleEndian.Uint64(hdr[8:16])
	um := binary.LittleEndian.Uint64(hdr[16:24])
	if un > math.MaxInt32 {
		return 0, 0, false, fmt.Errorf("graph: snapshot vertex count %d out of range", un)
	}
	if um > math.MaxInt32 {
		return 0, 0, false, fmt.Errorf("graph: snapshot sizes V=%d E=%d out of range", un, um)
	}
	return int64(un), int64(um), compressed, nil
}

// SnapshotLayout holds the absolute byte offset of every section payload
// inside a plain (uncompressed) snapshot. The fixed section order and
// fixed-width plain encoding make all six computable from (V, E) without
// reading the file, which is what lets the snapshot double as a
// positioned-read store: the edge store preads edge ranges, and the
// cluster coordinator sends a joining node only its own blocks' slices of
// each section.
type SnapshotLayout struct {
	InOff  int64 // (n+1) little-endian u64 CSC offsets
	InSrc  int64 // m little-endian u32 in-edge sources
	InW    int64 // m little-endian f32 weights
	OutOff int64 // (n+1) little-endian u64 CSR offsets
	OutDst int64 // m little-endian u32 out-edge destinations
	OutPos int64 // m little-endian u64 out-edge CSC slots
	End    int64 // file size: one past the last section's CRC
}

// SnapshotSectionLayout computes the plain-snapshot payload offsets for an
// n-vertex, m-edge graph.
func SnapshotSectionLayout(n, m int) SnapshotLayout {
	offLen, idLen, posLen := int64(n+1)*8, int64(m)*4, int64(m)*8
	next := int64(snapshotHeaderLen)
	sec := func(payloadLen int64) int64 {
		off := next + binfmt.SecHdrLen
		next = off + payloadLen + binfmt.CRCLen
		return off
	}
	l := SnapshotLayout{
		InOff:  sec(offLen),
		InSrc:  sec(idLen),
		InW:    sec(idLen),
		OutOff: sec(offLen),
		OutDst: sec(idLen),
		OutPos: sec(posLen),
	}
	l.End = next
	return l
}

// SnapshotEdgeSections returns the absolute byte offsets of the inSrc and
// inW section payloads inside a plain (uncompressed) snapshot of an
// n-vertex, m-edge graph; the snapshot-backed edge store preads edge
// ranges directly at these offsets.
func SnapshotEdgeSections(n, m int) (srcOff, wOff int64) {
	l := SnapshotSectionLayout(n, m)
	return l.InSrc, l.InW
}

// OpenPlainSnapshot opens a plain snapshot for positioned reads at its
// layout's offsets — the one opener behind the snapshot edge store and
// the cluster coordinator's section server. It refuses a compressed
// snapshot and any file whose size is not exactly the layout's end, so a
// header claiming more than the file holds is refused before anything is
// sized from it. The caller owns the returned file.
func OpenPlainSnapshot(path string) (f *os.File, n, m int, l SnapshotLayout, err error) {
	if f, err = os.Open(path); err != nil {
		return nil, 0, 0, l, err
	}
	defer func() {
		if err != nil {
			_ = f.Close() // the validation error supersedes the close error
			f = nil
		}
	}()
	var hdr [snapshotHeaderLen]byte
	if _, err = io.ReadFull(f, hdr[:]); err != nil {
		return f, 0, 0, l, fmt.Errorf("graph: snapshot header: %w", err)
	}
	n64, m64, compressed, err := parseSnapshotHeader(hdr[:])
	if err != nil {
		return f, 0, 0, l, err
	}
	if compressed {
		return f, 0, 0, l, fmt.Errorf("graph: snapshot %s is compressed; positioned reads need the plain format (re-save as .gabs)", path)
	}
	fi, err := f.Stat()
	if err != nil {
		return f, 0, 0, l, err
	}
	n, m = int(n64), int(m64)
	if l = SnapshotSectionLayout(n, m); fi.Size() != l.End {
		return f, 0, 0, l, fmt.Errorf("graph: snapshot %s is %d bytes, V=%d E=%d needs %d", path, fi.Size(), n, m, l.End)
	}
	return f, n, m, l, nil
}

// ReadPlainOffsets preads the CSC (out false) or CSR (out true) offset
// section of a plain snapshot that OpenPlainSnapshot opened as f, with
// its n and m, and validates it as a full load does: n+1 entries starting
// at 0, monotone, ending at m. OpenPlainSnapshot checked the file against
// the layout, so the read stays inside it.
func ReadPlainOffsets(f io.ReaderAt, n, m int, out bool) ([]int64, error) {
	l, tag := SnapshotSectionLayout(n, m), secInOff
	off := l.InOff
	if out {
		off, tag = l.OutOff, secOutOff
	}
	raw := make([]byte, (n+1)*8)
	if _, err := f.ReadAt(raw, off); err != nil {
		return nil, fmt.Errorf("graph: snapshot section %d at %d: %w", tag, off, err)
	}
	offs := make([]int64, n+1)
	for i := range offs {
		offs[i] = int64(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return offs, checkOffsets(tag, offs, n, m)
}

// FromSections assembles a Graph from decoded plain-snapshot section
// arrays, applying the same validation ReadSnapshot performs: array
// lengths, offset monotonicity spanning [0, m], and every cross-array
// invariant a hostile input could break. It exists for engines that
// receive sections over a transport rather than from a file — a cluster
// joiner populates only its owned slices of the edge arrays (the rest
// stay zero, which validates trivially and is never read, because a node
// only gathers and scatters over its own blocks' edges).
func FromSections(n, m int, inOff []int64, inSrc []uint32, inW []float32,
	outOff []int64, outDst []uint32, outPos []int64) (*Graph, error) {
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: sections describe V=%d E=%d", n, m)
	}
	if len(inSrc) != m || len(inW) != m || len(outDst) != m || len(outPos) != m {
		return nil, fmt.Errorf("graph: section lengths inSrc=%d inW=%d outDst=%d outPos=%d, want E=%d",
			len(inSrc), len(inW), len(outDst), len(outPos), m)
	}
	for _, off := range [2][]int64{inOff, outOff} {
		if len(off) != n+1 {
			return nil, fmt.Errorf("graph: offset section has %d entries, want %d", len(off), n+1)
		}
		if off[0] != 0 || off[n] != int64(m) {
			return nil, fmt.Errorf("graph: offsets span [%d,%d], want [0,%d]", off[0], off[n], m)
		}
		for v := 0; v < n; v++ {
			if off[v] > off[v+1] {
				return nil, fmt.Errorf("graph: offsets not monotone at vertex %d", v)
			}
		}
	}
	return newFromArrays(n, m, inOff, inSrc, inW, outOff, outDst, outPos)
}

// WriteSnapshot writes g in the plain snapshot format: fixed-width
// little-endian sections streamed through a bufio writer with a CRC per
// section. ReadSnapshot reloads it in O(m).
func WriteSnapshot(w io.Writer, g *Graph) error {
	return writeSnapshot(w, g, false)
}

// WriteSnapshotCompressed writes g in the varint-compressed snapshot
// format: smaller on disk (delta-uvarint offsets and vertex ids), decoded
// by the same ReadSnapshot.
func WriteSnapshotCompressed(w io.Writer, g *Graph) error {
	return writeSnapshot(w, g, true)
}

func writeSnapshot(w io.Writer, g *Graph, compressed bool) error {
	sw := binfmt.NewWriter(w)
	var hdr [snapshotHeaderLen]byte
	magic := snapshotMagic
	if compressed {
		magic = snapshotMagicZ
	}
	copy(hdr[:4], magic)
	binary.LittleEndian.PutUint32(hdr[4:8], snapshotVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(g.n))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(g.m))
	sw.Raw(hdr[:])
	if compressed {
		// An offset array is one ascending run; buf is reused across
		// sections because a variable-length payload's size is not known
		// before it is encoded.
		whole := []int64{0, int64(g.n + 1)}
		var buf []byte
		varint := func(tag uint32, b []byte) {
			sw.Bytes(tag, b)
			buf = b[:0]
		}
		varint(secInOff, appendRuns(buf, whole, g.inOff))
		varint(secInSrc, appendRuns(buf, g.inOff, g.inSrc))
		sw.F32s(secInW, g.inW)
		varint(secOutOff, appendRuns(buf, whole, g.outOff))
		varint(secOutDst, appendRuns(buf, g.outOff, g.outDst))
		varint(secOutPos, appendRuns(buf, g.outOff, g.outPos))
	} else {
		sw.I64s(secInOff, g.inOff)
		sw.U32s(secInSrc, g.inSrc)
		sw.F32s(secInW, g.inW)
		sw.I64s(secOutOff, g.outOff)
		sw.U32s(secOutDst, g.outDst)
		sw.I64s(secOutPos, g.outPos)
	}
	return sw.Flush()
}

// appendRuns appends vals as uvarint deltas whose base resets to zero at
// every boundary of off: per-vertex ascending runs for ids and slots, a
// single run for an offset array.
func appendRuns[T uint32 | int64](buf []byte, off []int64, vals []T) []byte {
	for v := 0; v+1 < len(off); v++ {
		var prev T
		for _, x := range vals[off[v]:off[v+1]] {
			buf = binary.AppendUvarint(buf, uint64(x-prev))
			prev = x
		}
	}
	return buf
}

// ReadSnapshot reads a snapshot written by WriteSnapshot or
// WriteSnapshotCompressed (distinguished by magic), verifies every
// section's CRC, validates the layout invariants, and returns the graph.
func ReadSnapshot(r io.Reader) (*Graph, error) {
	sr := binfmt.NewReader(r, "graph: snapshot")
	var hdr [snapshotHeaderLen]byte
	if err := sr.Header(hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: snapshot header: %w", err)
	}
	n64, m64, compressed, err := parseSnapshotHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	n, m := int(n64), int(m64)

	inOff, err := readOffsets(sr, compressed, secInOff, n, m)
	if err != nil {
		return nil, err
	}
	inSrc, err := readRuns(sr, compressed, secInSrc, inOff, m, (*binfmt.Reader).U32s)
	if err != nil {
		return nil, err
	}
	inW, err := sr.F32s(secInW, m)
	if err != nil {
		return nil, err
	}
	outOff, err := readOffsets(sr, compressed, secOutOff, n, m)
	if err != nil {
		return nil, err
	}
	outDst, err := readRuns(sr, compressed, secOutDst, outOff, m, (*binfmt.Reader).U32s)
	if err != nil {
		return nil, err
	}
	outPos, err := readRuns(sr, compressed, secOutPos, outOff, m, (*binfmt.Reader).I64s)
	if err != nil {
		return nil, err
	}
	return newFromArrays(n, m, inOff, inSrc, inW, outOff, outDst, outPos)
}

// newFromArrays assembles a Graph from deserialized layout arrays,
// validating every cross-array invariant a hostile or corrupted snapshot
// could break. Offset monotonicity is already guaranteed by the decoders.
func newFromArrays(n, m int, inOff []int64, inSrc []uint32, inW []float32,
	outOff []int64, outDst []uint32, outPos []int64) (*Graph, error) {
	for i, s := range inSrc {
		if int64(s) >= int64(n) {
			return nil, fmt.Errorf("graph: snapshot in-edge slot %d has source %d >= V=%d", i, s, n)
		}
	}
	for i, d := range outDst {
		if int64(d) >= int64(n) {
			return nil, fmt.Errorf("graph: snapshot out-edge %d has destination %d >= V=%d", i, d, n)
		}
	}
	for i, p := range outPos {
		if p < 0 || p >= int64(m) {
			return nil, fmt.Errorf("graph: snapshot out-edge %d has slot %d outside [0,%d)", i, p, m)
		}
	}
	g := &Graph{
		n: n, m: m,
		inOff: inOff, inSrc: inSrc, inW: inW,
		outOff: outOff, outDst: outDst, outPos: outPos,
		outDeg: make([]int32, n),
		inDeg:  make([]int32, n),
	}
	for v := 0; v < n; v++ {
		g.inDeg[v] = int32(inOff[v+1] - inOff[v])
		g.outDeg[v] = int32(outOff[v+1] - outOff[v])
	}
	return g, nil
}

// readOffsets decodes an offset section and validates it: n+1 entries,
// starting at 0, monotone, ending at m.
func readOffsets(r *binfmt.Reader, compressed bool, tag uint32, n, m int) ([]int64, error) {
	if !compressed {
		out, err := r.I64s(tag, n+1)
		if err != nil {
			return nil, err
		}
		return out, checkOffsets(tag, out, n, m)
	}
	raw, err := r.Whole(tag)
	if err != nil {
		return nil, err
	}
	// Every varint is at least one byte, so delivered bytes bound the
	// entry count and one growth step reaches final capacity.
	out := binfmt.GrowEarned([]int64(nil), min(n+1, len(raw)), n+1)
	prev := int64(0)
	for len(raw) > 0 {
		d, k := binary.Uvarint(raw)
		if k <= 0 {
			return nil, fmt.Errorf("graph: snapshot section %d: corrupt varint", tag)
		}
		raw = raw[k:]
		prev += int64(d)
		out = append(out, prev)
		if len(out) > n+1 {
			return nil, fmt.Errorf("graph: snapshot section %d: more than %d offsets", tag, n+1)
		}
	}
	if len(out) != n+1 {
		return nil, fmt.Errorf("graph: snapshot section %d has %d offsets, want %d", tag, len(out), n+1)
	}
	return out, checkOffsets(tag, out, n, m)
}

func checkOffsets(tag uint32, off []int64, n, m int) error {
	if off[0] != 0 || off[n] != int64(m) {
		return fmt.Errorf("graph: snapshot section %d offsets span [%d,%d], want [0,%d]", tag, off[0], off[n], m)
	}
	for v := 0; v < n; v++ {
		if off[v] > off[v+1] {
			return fmt.Errorf("graph: snapshot section %d offsets not monotone at vertex %d", tag, v)
		}
	}
	return nil
}

// readRuns decodes an m-entry vertex-id (inSrc/outDst, T = uint32) or
// slot (outPos, T = int64) section: plain payloads through plain,
// compressed ones as per-vertex ascending delta runs over off.
func readRuns[T uint32 | int64](r *binfmt.Reader, compressed bool, tag uint32, off []int64, m int,
	plain func(*binfmt.Reader, uint32, int) ([]T, error)) ([]T, error) {
	if !compressed {
		return plain(r, tag, m)
	}
	raw, err := r.Whole(tag)
	if err != nil {
		return nil, err
	}
	what := "id"
	if tag == secOutPos {
		what = "slot"
	}
	out := binfmt.GrowEarned([]T(nil), min(m, len(raw)), m)
	for v := 0; v+1 < len(off); v++ {
		prev := uint64(0)
		for s := off[v]; s < off[v+1]; s++ {
			d, k := binary.Uvarint(raw)
			if k <= 0 {
				return nil, fmt.Errorf("graph: snapshot section %d: corrupt varint at vertex %d", tag, v)
			}
			raw = raw[k:]
			prev += d
			x := T(prev)
			if x < 0 || uint64(x) != prev {
				return nil, fmt.Errorf("graph: snapshot section %d: %s overflow at vertex %d", tag, what, v)
			}
			out = append(out, x)
		}
	}
	if len(raw) != 0 {
		return nil, fmt.Errorf("graph: snapshot section %d has %d trailing bytes", tag, len(raw))
	}
	return out, nil
}
