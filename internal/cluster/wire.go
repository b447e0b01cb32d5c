package cluster

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Wire codec for Envelope. Envelope payload fields are unexported on
// purpose (a Transport moves envelopes, it does not interpret them), so
// the byte-level codec that socket transports need lives here, next to
// the type, rather than leaking field access across packages.
//
// Layout, little-endian throughout:
//
//	kind    u8    envData=0 | envAck=1
//	from    u32   sending node id
//	id      u64   logical batch id / write stamp
//	sentAt  i64   unix nanoseconds, 0 for the zero time
//	nslots  u32   number of slot entries
//	nwords  u32   number of encoded value words
//	slots   nslots x u64   CSC slot indices
//	blocks  nslots x u32   global block id per slot
//	words   nwords x u64   encoded values
//
// A data envelope requires nwords to be a multiple of nslots (the codec
// word width times the slot count); an ack carries no payload. Decoding
// validates the byte length exactly against the declared counts, so a
// header that lies about its counts is rejected before any payload
// allocation happens.

const envelopeHdrLen = 1 + 4 + 8 + 8 + 4 + 4

// maxWireNode bounds the sender id a decoded envelope may claim. Real
// deployments are far smaller; the bound keeps a hostile frame from
// smuggling absurd ids into delivery paths that index by node.
const maxWireNode = 1 << 20

// NewDataEnvelope builds a data-batch envelope (codec tests and fuzzers;
// the node's flush builds its own). The slices are retained, not copied.
// len(words) must be a multiple of len(slots) (codec words per slot).
func NewDataEnvelope(from int, id uint64, sentAt time.Time, slots []int64, blocks []int32, words []uint64) Envelope {
	return Envelope{kind: envData, from: from, id: id, sentAt: sentAt,
		slots: slots, blocks: blocks, words: words}
}

// NewAck builds an acknowledgment for the data envelope with the given
// id, sent by node from.
func NewAck(from int, id uint64) Envelope {
	return Envelope{kind: envAck, from: from, id: id}
}

// From returns the sending node id.
func (e Envelope) From() int { return e.from }

// EnvelopeWireSize returns the exact encoded size of e in bytes.
func EnvelopeWireSize(e Envelope) int {
	return envelopeHdrLen + len(e.slots)*12 + len(e.words)*8
}

// AppendEnvelope appends the wire encoding of e to dst and returns the
// extended slice.
func AppendEnvelope(dst []byte, e Envelope) []byte {
	dst = append(dst, byte(e.kind)) //abcdlint:ignore hotalloc -- callers presize dst via EnvelopeWireSize, so these appends never grow
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.from))
	dst = binary.LittleEndian.AppendUint64(dst, e.id)
	var ns int64
	if !e.sentAt.IsZero() {
		ns = e.sentAt.UnixNano()
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ns))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.slots)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.words)))
	for _, s := range e.slots {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(s))
	}
	for _, b := range e.blocks {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(b))
	}
	for _, w := range e.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// DecodeEnvelope parses one wire-encoded envelope. The input must be
// exactly one envelope: trailing bytes, truncation, an unknown kind, or
// counts inconsistent with the byte length are all errors. The returned
// envelope owns freshly allocated payload slices.
func DecodeEnvelope(b []byte) (Envelope, error) {
	if len(b) < envelopeHdrLen {
		return Envelope{}, fmt.Errorf("cluster: envelope truncated: %d bytes, header needs %d", len(b), envelopeHdrLen)
	}
	kind := b[0]
	if kind != byte(envData) && kind != byte(envAck) {
		return Envelope{}, fmt.Errorf("cluster: unknown envelope kind %d", kind)
	}
	from := binary.LittleEndian.Uint32(b[1:])
	id := binary.LittleEndian.Uint64(b[5:])
	sentNS := int64(binary.LittleEndian.Uint64(b[13:]))
	nslots := int(binary.LittleEndian.Uint32(b[21:]))
	nwords := int(binary.LittleEndian.Uint32(b[25:]))
	if from >= maxWireNode {
		return Envelope{}, fmt.Errorf("cluster: envelope sender %d out of range", from)
	}
	if kind == byte(envAck) && (nslots != 0 || nwords != 0) {
		return Envelope{}, fmt.Errorf("cluster: ack envelope carries payload (%d slots, %d words)", nslots, nwords)
	}
	if nslots == 0 && nwords != 0 {
		return Envelope{}, fmt.Errorf("cluster: %d words with zero slots", nwords)
	}
	if nslots > 0 && nwords%nslots != 0 {
		return Envelope{}, fmt.Errorf("cluster: %d words not a multiple of %d slots", nwords, nslots)
	}
	want := int64(envelopeHdrLen) + int64(nslots)*12 + int64(nwords)*8
	if int64(len(b)) != want {
		return Envelope{}, fmt.Errorf("cluster: envelope length %d, counts declare %d", len(b), want)
	}
	e := Envelope{kind: envKind(kind), from: int(from), id: id}
	if sentNS != 0 {
		e.sentAt = time.Unix(0, sentNS)
	}
	// The exact-length check above already proved the payload bytes are
	// present, but sizes still flow through the earned-growth clamps so
	// a decoder bug can never turn a decoded count into a huge upfront
	// allocation.
	off := envelopeHdrLen
	e.slots = make([]int64, 0, presizeCap(nslots, 8))
	for i := 0; i < nslots; i++ {
		e.slots = growEarned(e.slots, 1, nslots)
		e.slots = append(e.slots, int64(binary.LittleEndian.Uint64(b[off:])))
		off += 8
	}
	e.blocks = make([]int32, 0, presizeCap(nslots, 4))
	for i := 0; i < nslots; i++ {
		e.blocks = growEarned(e.blocks, 1, nslots)
		e.blocks = append(e.blocks, int32(binary.LittleEndian.Uint32(b[off:])))
		off += 4
	}
	e.words = make([]uint64, 0, presizeCap(nwords, 8))
	for i := 0; i < nwords; i++ {
		e.words = growEarned(e.words, 1, nwords)
		e.words = append(e.words, binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	return e, nil
}

// presizeCap clamps an upfront allocation sized by decoded input to a
// fixed byte budget; growEarned quadruples capacity from what delivered
// bytes have earned. Same contract as the internal/graph snapshot
// decoder's clamps (the abcdlint boundalloc rule recognizes the names).
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
