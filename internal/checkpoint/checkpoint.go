// Package checkpoint implements crash-safe engine-state snapshots and
// deterministic schedule replay for GraphABCD runs (DESIGN.md §12).
//
// Asynchronous BCD converges from any intermediate iterate, so a fuzzy
// snapshot of (vertex values, scheduler priorities, progress counters)
// taken while workers keep running is a valid restart point: the captured state is just another member of the bounded
// staleness family the convergence analysis already tolerates. The file
// is a fixed little-endian header followed by fixed-order sections in the
// internal/binfmt framing GABS snapshots use, decoded by the same reader,
// which never sizes an allocation from a header claim alone.
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
//	sections, in fixed order, in the binfmt framing
//	(tag u32 | payloadLen u64 | payload | crc32 u32):
//	    tags 1 meta, 2 values, 3 priority, 4 active, 5 stamps
//
// The meta section fixes the node's owned ranges and progress counters
// (ten u64 fields); values are raw vertex-value words for [VertexLo,
// VertexHi); priority is float64 bits and active one byte per block in
// [BlockLo, BlockHi). The runtimes write the slot base, the stamps
// section and the envelope sequence zero or empty, and ignore them when
// read: files of
// older commits carry a distributed node's per-slot write stamps there,
// which a resume never needs, since it rebuilds every image from the
// values. They stay in the format so those files still decode. Every
// cross-field invariant is validated on decode, so a torn or
// bit-flipped file yields an error, never a bad resume.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"graphabcd/internal/binfmt"
)

const (
	ckptMagic     = "GABC"
	ckptVersion   = 1
	ckptHeaderLen = 4 + 4 + 8 + 8 + 4 + 4 + 4 + 4 + 4
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
	// Seq is written zero and ignored when read; files of older commits
	// hold a distributed node's envelope send sequence here.
	Seq uint64
}

// State is one node's decoded engine state. A single-process run is the
// Node=0, Nodes=1 case owning every vertex and block.
type State struct {
	NumVertices int64 // total vertices of the run
	NumBlocks   int64 // total blocks of the run
	Words       int   // codec words per vertex value
	Node, Nodes int

	VertexLo, VertexHi int64 // owned vertex range [lo, hi)
	BlockLo, BlockHi   int64 // owned block range [lo, hi)
	SlotBase           int64 // written zero, ignored when read (older files: first owned in-edge slot)

	Values   []uint64 // (VertexHi-VertexLo)*Words raw value words
	Priority []uint64 // (BlockHi-BlockLo) float64 bit patterns
	Active   []byte   // (BlockHi-BlockLo) 0/1 active flags
	Stamps   []uint64 // written empty, ignored when read (older files: per-slot write stamps)

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

// Encoder writes GABC state files through one set of write buffers, so
// an owner that captures every epoch allocates them once. The zero value
// is ready to use.
type Encoder struct {
	out countingWriter
	cw  *binfmt.Writer
}

// Encode writes st in the GABC format. The writer is buffered internally;
// callers pair it with Store.WriteState for atomic temp+rename placement.
func Encode(w io.Writer, st *State) error {
	_, err := new(Encoder).EncodeState(w, st)
	return err
}

// EncodeState is Encode that also reports the bytes written, so the
// checkpoint cost counters reflect actual state file sizes.
func (e *Encoder) EncodeState(w io.Writer, st *State) (int64, error) {
	if err := st.validate(); err != nil {
		return 0, err
	}
	e.out = countingWriter{w: w}
	if e.cw == nil {
		e.cw = binfmt.NewWriter(&e.out)
	} else {
		e.cw.Reset(&e.out)
	}
	cw := e.cw
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
	cw.Raw(hdr[:])
	cw.U64s(secMeta, []uint64{
		uint64(st.VertexLo), uint64(st.VertexHi),
		uint64(st.BlockLo), uint64(st.BlockHi),
		uint64(st.SlotBase), uint64(len(st.Stamps)),
		uint64(st.Counters.VertexUpdates), uint64(st.Counters.BlockUpdates),
		uint64(st.Counters.EdgesTraversed), st.Counters.Seq,
	})
	cw.U64s(secValues, st.Values)
	cw.U64s(secPriority, st.Priority)
	cw.Bytes(secActive, st.Active)
	cw.U64s(secStamps, st.Stamps)
	err := cw.Flush()
	n := e.out.n
	e.out.w = nil // hold no reference to w past the encode
	return n, err
}

// Decode reads a GABC state file, verifying every section CRC and every
// cross-field invariant. Allocation follows delivered bytes, never the
// header's claims.
func Decode(r io.Reader) (*State, error) {
	cr := binfmt.NewReader(r, "checkpoint:")
	var hdr [ckptHeaderLen]byte
	if err := cr.Header(hdr[:]); err != nil {
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

	meta, err := cr.U64s(secMeta, metaFields)
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
	slotCount := int(meta[5])
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

	// The owned ranges are bounded by the header counts now, so only the
	// value word count can still exceed what a run could hold.
	valueWords := (st.VertexHi - st.VertexLo) * int64(st.Words)
	if valueWords > maxCkptSlots {
		return nil, fmt.Errorf("checkpoint: section %d wants %d entries, out of range", secValues, valueWords)
	}
	if st.Values, err = cr.U64s(secValues, int(valueWords)); err != nil {
		return nil, err
	}
	ownedBlocks := int(st.BlockHi - st.BlockLo)
	if st.Priority, err = cr.U64s(secPriority, ownedBlocks); err != nil {
		return nil, err
	}
	if st.Active, err = cr.Bytes(secActive, ownedBlocks); err != nil {
		return nil, err
	}
	if st.Stamps, err = cr.U64s(secStamps, slotCount); err != nil {
		return nil, err
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	return st, nil
}
