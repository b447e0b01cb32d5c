// Package checkpoint implements crash-safe engine-state snapshots and
// deterministic schedule replay for GraphABCD runs (DESIGN.md §12).
//
// Asynchronous BCD converges from any intermediate iterate, so a fuzzy
// snapshot of (vertex values, scheduler priorities, progress counters,
// per-slot write stamps) taken while workers keep running is a valid
// restart point: the captured state is just another member of the bounded
// staleness family the convergence analysis already tolerates. The format
// reuses the GABS snapshot discipline from internal/graph: a fixed
// little-endian header, fixed-order CRC-trailed sections, and a decoder
// that never sizes an allocation from a header claim alone
// (presizeCap/growEarned).
//
// State file layout ("GABC", version 1):
//
//	header (44 bytes, little-endian):
//	    magic[4]  "GABC"
//	    version   u32 currently 1
//	    n         u64 total vertex count of the run
//	    nb        u64 total block count of the run
//	    words     u32 codec words per vertex value
//	    reserved  u32 zero
//	    node      u32 writing node id (0 for single-process runs)
//	    nodes     u32 cluster size (1 for single-process runs)
//	    crc       u32 IEEE CRC-32 of the preceding 40 bytes
//	sections, in fixed order, each:
//	    tag        u32   1 meta, 2 values, 3 priority, 4 active, 5 stamps
//	    payloadLen u64   bytes of payload
//	    payload    [payloadLen]byte
//	    crc        u32   IEEE CRC-32 of the payload
//
// The meta section fixes the node's owned ranges and progress counters
// (ten u64 fields); values are raw vertex-value words for [VertexLo,
// VertexHi); priority is float64 bits and active one byte per block in
// [BlockLo, BlockHi); stamps are the per-slot envelope write stamps for
// SlotCount in-edge slots starting at SlotBase (empty for single-process
// runs). Every cross-field invariant is validated on decode, so a torn or
// bit-flipped file yields an error, never a bad resume.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	ckptMagic     = "GABC"
	ckptVersion   = 1
	ckptHeaderLen = 4 + 4 + 8 + 8 + 4 + 4 + 4 + 4 + 4
	ckptSecHdrLen = 4 + 8
	ckptCRCLen    = 4
)

// Section tags, in file order.
const (
	secMeta uint32 = 1 + iota
	secValues
	secPriority
	secActive
	secStamps
)

// metaFields is the fixed u64 field count of the meta section.
const metaFields = 10

// Decoder sanity bounds, mirroring the cluster transport's limits: a
// checkpoint describing a larger run than the engine could ever host is
// corrupt by definition.
const (
	maxCkptVertices = 1 << 31
	maxCkptSlots    = 1 << 35
	maxCkptNodes    = 1 << 12
	maxCkptWords    = 1 << 10
)

// Counters carries the progress counters a resume re-seeds so epoch
// budgets and statistics continue across the restart instead of resetting.
type Counters struct {
	VertexUpdates  int64
	BlockUpdates   int64
	EdgesTraversed int64
	// Seq is the distributed node's envelope send sequence at capture
	// time. The resume coordinator restarts every node's sequence above
	// the cluster-wide maximum so restored per-slot stamps can never
	// reject post-resume writes as stale. Zero for single-process runs.
	Seq uint64
}

// State is one node's decoded engine state. A single-process run is the
// Node=0, Nodes=1 case owning every vertex, block, and no slot stamps.
type State struct {
	NumVertices int64 // total vertices of the run
	NumBlocks   int64 // total blocks of the run
	Words       int   // codec words per vertex value
	Node, Nodes int

	VertexLo, VertexHi int64 // owned vertex range [lo, hi)
	BlockLo, BlockHi   int64 // owned block range [lo, hi)
	SlotBase           int64 // first owned in-edge slot (stamps)

	Values   []uint64 // (VertexHi-VertexLo)*Words raw value words
	Priority []uint64 // (BlockHi-BlockLo) float64 bit patterns
	Active   []byte   // (BlockHi-BlockLo) 0/1 active flags
	Stamps   []uint64 // per-slot write stamps, may be empty

	Counters Counters
}

// validate checks every invariant the encoder relies on and the decoder
// re-checks; sharing it keeps a hand-built State from writing a file the
// reader would refuse.
func (st *State) validate() error {
	switch {
	case st.NumVertices < 0 || st.NumVertices > maxCkptVertices:
		return fmt.Errorf("checkpoint: vertex count %d out of range", st.NumVertices)
	case st.NumBlocks < 0 || st.NumBlocks > maxCkptVertices:
		return fmt.Errorf("checkpoint: block count %d out of range", st.NumBlocks)
	case st.Words < 1 || st.Words > maxCkptWords:
		return fmt.Errorf("checkpoint: %d words per value out of range", st.Words)
	case st.Nodes < 1 || st.Nodes > maxCkptNodes || st.Node < 0 || st.Node >= st.Nodes:
		return fmt.Errorf("checkpoint: node %d of %d out of range", st.Node, st.Nodes)
	case st.VertexLo < 0 || st.VertexLo > st.VertexHi || st.VertexHi > st.NumVertices:
		return fmt.Errorf("checkpoint: vertex range [%d,%d) outside [0,%d)", st.VertexLo, st.VertexHi, st.NumVertices)
	case st.BlockLo < 0 || st.BlockLo > st.BlockHi || st.BlockHi > st.NumBlocks:
		return fmt.Errorf("checkpoint: block range [%d,%d) outside [0,%d)", st.BlockLo, st.BlockHi, st.NumBlocks)
	case st.SlotBase < 0 || st.SlotBase > maxCkptSlots:
		return fmt.Errorf("checkpoint: slot base %d out of range", st.SlotBase)
	case int64(len(st.Stamps)) > maxCkptSlots:
		return fmt.Errorf("checkpoint: %d slot stamps out of range", len(st.Stamps))
	case int64(len(st.Values)) != (st.VertexHi-st.VertexLo)*int64(st.Words):
		return fmt.Errorf("checkpoint: %d value words, want %d", len(st.Values), (st.VertexHi-st.VertexLo)*int64(st.Words))
	case int64(len(st.Priority)) != st.BlockHi-st.BlockLo:
		return fmt.Errorf("checkpoint: %d priorities, want %d", len(st.Priority), st.BlockHi-st.BlockLo)
	case int64(len(st.Active)) != st.BlockHi-st.BlockLo:
		return fmt.Errorf("checkpoint: %d active flags, want %d", len(st.Active), st.BlockHi-st.BlockLo)
	case st.Counters.VertexUpdates < 0 || st.Counters.BlockUpdates < 0 || st.Counters.EdgesTraversed < 0:
		return fmt.Errorf("checkpoint: negative progress counters")
	}
	for i, a := range st.Active {
		if a > 1 {
			return fmt.Errorf("checkpoint: active flag %d is %d, want 0 or 1", i, a)
		}
	}
	// Priorities feed the scheduler directly; refuse bit patterns the
	// priority rule cannot order (a NaN would also have poisoned the run
	// that wrote them).
	for i, p := range st.Priority {
		f := math.Float64frombits(p)
		if math.IsNaN(f) || f < 0 {
			return fmt.Errorf("checkpoint: block %d priority %g invalid", st.BlockLo+int64(i), f)
		}
	}
	return nil
}

// countingWriter counts the bytes an encode pushes through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// EncodeCounted is Encode that also reports the bytes written, so the
// checkpoint cost counters reflect actual state file sizes.
func EncodeCounted(w io.Writer, st *State) (int64, error) {
	cw := &countingWriter{w: w}
	err := Encode(cw, st)
	return cw.n, err
}

// Encode writes st in the GABC format. The writer is buffered internally;
// callers pair it with Store.WriteState for atomic temp+rename placement.
func Encode(w io.Writer, st *State) error {
	if err := st.validate(); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [ckptHeaderLen]byte
	copy(hdr[:4], ckptMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], ckptVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(st.NumVertices))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(st.NumBlocks))
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(st.Words))
	binary.LittleEndian.PutUint32(hdr[28:32], 0)
	binary.LittleEndian.PutUint32(hdr[32:36], uint32(st.Node))
	binary.LittleEndian.PutUint32(hdr[36:40], uint32(st.Nodes))
	// The header gets its own CRC so that, unlike GABS (whose reader
	// cross-checks counts against section lengths), no flipped size field
	// can survive into a structurally plausible decode.
	binary.LittleEndian.PutUint32(hdr[40:44], crc32.ChecksumIEEE(hdr[:40]))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	cw := &ckptWriter{bw: bw}
	cw.u64Section(secMeta, []uint64{
		uint64(st.VertexLo), uint64(st.VertexHi),
		uint64(st.BlockLo), uint64(st.BlockHi),
		uint64(st.SlotBase), uint64(len(st.Stamps)),
		uint64(st.Counters.VertexUpdates), uint64(st.Counters.BlockUpdates),
		uint64(st.Counters.EdgesTraversed), st.Counters.Seq,
	})
	cw.u64Section(secValues, st.Values)
	cw.u64Section(secPriority, st.Priority)
	cw.byteSection(secActive, st.Active)
	cw.u64Section(secStamps, st.Stamps)
	if cw.err != nil {
		return cw.err
	}
	return bw.Flush()
}

// ckptWriter emits sections, accumulating the first write error — the
// GABS snapWriter shape.
type ckptWriter struct {
	bw  *bufio.Writer
	err error
	blk []byte
}

func (cw *ckptWriter) write(b []byte) {
	if cw.err == nil {
		_, cw.err = cw.bw.Write(b)
	}
}

func (cw *ckptWriter) sectionHeader(tag uint32, payloadLen int64) {
	var h [ckptSecHdrLen]byte
	binary.LittleEndian.PutUint32(h[0:4], tag)
	binary.LittleEndian.PutUint64(h[4:12], uint64(payloadLen))
	cw.write(h[:])
}

func (cw *ckptWriter) crc(sum uint32) {
	var b [ckptCRCLen]byte
	binary.LittleEndian.PutUint32(b[:], sum)
	cw.write(b[:])
}

// encodeBlockSize is the staging-block size for streaming sections: each
// full block takes one CRC update and one buffered write.
const encodeBlockSize = 64 << 10

func (cw *ckptWriter) block() []byte {
	if cw.blk == nil {
		cw.blk = make([]byte, encodeBlockSize)
	}
	return cw.blk
}

// u64Section streams vals as little-endian u64, block-buffered.
func (cw *ckptWriter) u64Section(tag uint32, vals []uint64) {
	cw.sectionHeader(tag, int64(len(vals))*8)
	crc := crc32.NewIEEE()
	blk := cw.block()
	fill := 0
	for _, v := range vals {
		if fill == len(blk) {
			_, _ = crc.Write(blk) // hash.Hash.Write never fails
			cw.write(blk)
			fill = 0
		}
		binary.LittleEndian.PutUint64(blk[fill:], v)
		fill += 8
	}
	_, _ = crc.Write(blk[:fill])
	cw.write(blk[:fill])
	cw.crc(crc.Sum32())
}

// byteSection emits a raw byte payload (the active flags).
func (cw *ckptWriter) byteSection(tag uint32, b []byte) {
	cw.sectionHeader(tag, int64(len(b)))
	cw.write(b)
	cw.crc(crc32.ChecksumIEEE(b))
}

// Decode reads a GABC state file, verifying every section CRC and every
// cross-field invariant. Allocation follows delivered bytes, never the
// header's claims.
func Decode(r io.Reader) (*State, error) {
	br := bufio.NewReaderSize(r, 1<<14)
	var hdr [ckptHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: header: %w", err)
	}
	if string(hdr[:4]) != ckptMagic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != ckptVersion {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (have %d)", v, ckptVersion)
	}
	if got := binary.LittleEndian.Uint32(hdr[40:44]); got != crc32.ChecksumIEEE(hdr[:40]) {
		return nil, fmt.Errorf("checkpoint: header checksum mismatch (file %08x, data %08x)", got, crc32.ChecksumIEEE(hdr[:40]))
	}
	st := &State{}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	nb := binary.LittleEndian.Uint64(hdr[16:24])
	words := binary.LittleEndian.Uint32(hdr[24:28])
	node := binary.LittleEndian.Uint32(hdr[32:36])
	nodes := binary.LittleEndian.Uint32(hdr[36:40])
	if n > maxCkptVertices || nb > maxCkptVertices {
		return nil, fmt.Errorf("checkpoint: sizes V=%d blocks=%d out of range", n, nb)
	}
	if words < 1 || words > maxCkptWords {
		return nil, fmt.Errorf("checkpoint: %d words per value out of range", words)
	}
	if nodes < 1 || nodes > maxCkptNodes || node >= nodes {
		return nil, fmt.Errorf("checkpoint: node %d of %d out of range", node, nodes)
	}
	st.NumVertices, st.NumBlocks = int64(n), int64(nb)
	st.Words, st.Node, st.Nodes = int(words), int(node), int(nodes)

	cr := ckptReader{br: br}
	meta, err := cr.u64s(secMeta, metaFields)
	if err != nil {
		return nil, err
	}
	// Bound the range fields before any section length derives from them:
	// a lying meta section must fail here, not size an allocation.
	for i, f := range meta[:6] {
		if f > maxCkptSlots {
			return nil, fmt.Errorf("checkpoint: meta field %d = %d out of range", i, f)
		}
	}
	st.VertexLo, st.VertexHi = int64(meta[0]), int64(meta[1])
	st.BlockLo, st.BlockHi = int64(meta[2]), int64(meta[3])
	st.SlotBase = int64(meta[4])
	slotCount := int64(meta[5])
	if st.VertexLo > st.VertexHi || st.VertexHi > st.NumVertices {
		return nil, fmt.Errorf("checkpoint: vertex range [%d,%d) outside [0,%d)", st.VertexLo, st.VertexHi, st.NumVertices)
	}
	if st.BlockLo > st.BlockHi || st.BlockHi > st.NumBlocks {
		return nil, fmt.Errorf("checkpoint: block range [%d,%d) outside [0,%d)", st.BlockLo, st.BlockHi, st.NumBlocks)
	}
	for _, c := range meta[6:9] {
		if c > math.MaxInt64 {
			return nil, fmt.Errorf("checkpoint: progress counter %d out of range", c)
		}
	}
	st.Counters = Counters{
		VertexUpdates:  int64(meta[6]),
		BlockUpdates:   int64(meta[7]),
		EdgesTraversed: int64(meta[8]),
		Seq:            meta[9],
	}

	valueWords := (st.VertexHi - st.VertexLo) * int64(st.Words)
	if st.Values, err = cr.u64s(secValues, valueWords); err != nil {
		return nil, err
	}
	ownedBlocks := st.BlockHi - st.BlockLo
	if st.Priority, err = cr.u64s(secPriority, ownedBlocks); err != nil {
		return nil, err
	}
	if st.Active, err = cr.bytes(secActive, ownedBlocks); err != nil {
		return nil, err
	}
	if st.Stamps, err = cr.u64s(secStamps, slotCount); err != nil {
		return nil, err
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	return st, nil
}

// ckptReader decodes consecutive sections, verifying tag, exact payload
// length, and CRC.
type ckptReader struct {
	br      *bufio.Reader
	scratch []byte
}

// presizeCap bounds a decoded array's initial capacity: enough for want
// entries, capped so a hostile header can cost at most a few megabytes
// before real payload bytes must arrive.
func presizeCap(want, entryBytes int) int {
	const maxUpfront = 4 << 20
	if want < 0 {
		return 0
	}
	if want > maxUpfront/entryBytes {
		return maxUpfront / entryBytes
	}
	return want
}

// growEarned makes room for need more entries without trusting the
// header: capacity quadruples from what delivered payload bytes have
// already earned, capped at the claimed want.
func growEarned[T any](s []T, need, want int) []T {
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

// section reads one section header, checks the tag, and enforces the
// exact payload length the already-validated meta fields dictate.
func (cr *ckptReader) section(tag uint32, wantLen int64) error {
	var h [ckptSecHdrLen]byte
	if _, err := io.ReadFull(cr.br, h[:]); err != nil {
		return fmt.Errorf("checkpoint: section %d header: %w", tag, err)
	}
	if got := binary.LittleEndian.Uint32(h[0:4]); got != tag {
		return fmt.Errorf("checkpoint: section tag %d, want %d", got, tag)
	}
	if l := binary.LittleEndian.Uint64(h[4:12]); l != uint64(wantLen) {
		return fmt.Errorf("checkpoint: section %d is %d bytes, want %d", tag, l, wantLen)
	}
	return nil
}

// payload reads exactly l payload bytes in bounded chunks and verifies
// the trailing CRC.
func (cr *ckptReader) payload(tag uint32, l int64, consume func([]byte)) error {
	crc := crc32.NewIEEE()
	if cr.scratch == nil {
		cr.scratch = make([]byte, 1<<20)
	}
	for remaining := l; remaining > 0; {
		k := int64(len(cr.scratch))
		if k > remaining {
			k = remaining
		}
		if _, err := io.ReadFull(cr.br, cr.scratch[:k]); err != nil {
			return fmt.Errorf("checkpoint: section %d payload: %w", tag, err)
		}
		_, _ = crc.Write(cr.scratch[:k]) // hash.Hash.Write never fails
		consume(cr.scratch[:k])
		remaining -= k
	}
	var c [ckptCRCLen]byte
	if _, err := io.ReadFull(cr.br, c[:]); err != nil {
		return fmt.Errorf("checkpoint: section %d checksum: %w", tag, err)
	}
	if got := binary.LittleEndian.Uint32(c[:]); got != crc.Sum32() {
		return fmt.Errorf("checkpoint: section %d checksum mismatch (file %08x, data %08x)", tag, got, crc.Sum32())
	}
	return nil
}

// u64s decodes a u64 section of exactly count entries.
func (cr *ckptReader) u64s(tag uint32, count int64) ([]uint64, error) {
	if count < 0 || count > maxCkptSlots {
		return nil, fmt.Errorf("checkpoint: section %d wants %d entries, out of range", tag, count)
	}
	if err := cr.section(tag, count*8); err != nil {
		return nil, err
	}
	out := make([]uint64, 0, presizeCap(int(count), 8))
	if err := cr.payload(tag, count*8, func(chunk []byte) {
		out = growEarned(out, len(chunk)/8, int(count))
		for i := 0; i+8 <= len(chunk); i += 8 {
			out = append(out, binary.LittleEndian.Uint64(chunk[i:]))
		}
	}); err != nil {
		return nil, err
	}
	if int64(len(out)) != count {
		return nil, fmt.Errorf("checkpoint: section %d has %d entries, want %d", tag, len(out), count)
	}
	return out, nil
}

// bytes decodes a raw byte section of exactly count bytes.
func (cr *ckptReader) bytes(tag uint32, count int64) ([]byte, error) {
	if count < 0 || count > maxCkptSlots {
		return nil, fmt.Errorf("checkpoint: section %d wants %d bytes, out of range", tag, count)
	}
	if err := cr.section(tag, count); err != nil {
		return nil, err
	}
	out := make([]byte, 0, presizeCap(int(count), 1))
	if err := cr.payload(tag, count, func(chunk []byte) {
		out = growEarned(out, len(chunk), int(count))
		out = append(out, chunk...)
	}); err != nil {
		return nil, err
	}
	if int64(len(out)) != count {
		return nil, fmt.Errorf("checkpoint: section %d has %d bytes, want %d", tag, len(out), count)
	}
	return out, nil
}
