package cluster

import (
	"encoding/binary"
	"fmt"
	"time"

	"graphabcd/internal/binfmt"
)

// Wire codec for Envelope. Envelope payload fields are unexported on
// purpose (a Transport moves envelopes, it does not interpret them), so
// the byte-level codec that socket transports need lives here, next to
// the type, rather than leaking field access across packages.
//
// Layout, little-endian throughout:
//
//	kind    u8    envImages=2 | envAck=1; the layout's version
//	from    u32   sending node id
//	id      u64   logical batch id / write stamp
//	sentAt  i64   unix nanoseconds, 0 for the zero time
//	nsrcs   u32   number of image entries
//	nwords  u32   number of encoded image words
//	srcs    nsrcs x u32   source vertex per entry
//	words   nwords x u64  encoded scatter images
//
// A data entry is a source vertex and its image, 4 + 8·codec-width
// bytes; the receiver stores the image once, for every in-edge slot the
// source feeds on it. A data envelope requires nwords to be a multiple of nsrcs
// (the codec word width times the entry count); an ack carries no
// payload. Any other kind is refused — kind 0, the per-slot layout
// before it, included — so peers of two layouts fail instead of
// misreading each other. Decoding validates the byte length exactly
// against the declared counts, so a header that lies about its counts is
// rejected before any payload allocation happens.

const envelopeHdrLen = 1 + 4 + 8 + 8 + 4 + 4

// maxWireNode bounds the sender id a decoded envelope may claim. Real
// deployments are far smaller; the bound keeps a hostile frame from
// smuggling absurd ids into delivery paths that index by node.
const maxWireNode = 1 << 20

// NewDataEnvelope builds a data-batch envelope (codec tests and fuzzers;
// the node's flush builds its own). The slices are retained, not copied.
// len(words) must be a multiple of len(srcs) (codec words per image).
func NewDataEnvelope(from int, id uint64, sentAt time.Time, srcs []uint32, words []uint64) Envelope {
	return Envelope{kind: envImages, from: from, id: id, sentAt: sentAt, srcs: srcs, words: words}
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
	return envelopeHdrLen + len(e.srcs)*4 + len(e.words)*8
}

// AppendEnvelope appends the wire encoding of e to dst and returns the
// extended slice.
func AppendEnvelope(dst []byte, e Envelope) []byte {
	dst = append(dst, byte(e.kind))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.from))
	dst = binary.LittleEndian.AppendUint64(dst, e.id)
	var ns int64
	if !e.sentAt.IsZero() {
		ns = e.sentAt.UnixNano()
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ns))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.srcs)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.words)))
	for _, s := range e.srcs {
		dst = binary.LittleEndian.AppendUint32(dst, s)
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
	if kind != byte(envImages) && kind != byte(envAck) {
		return Envelope{}, fmt.Errorf("cluster: unknown envelope kind %d", kind)
	}
	from := binary.LittleEndian.Uint32(b[1:])
	id := binary.LittleEndian.Uint64(b[5:])
	sentNS := int64(binary.LittleEndian.Uint64(b[13:]))
	nsrcs := int(binary.LittleEndian.Uint32(b[21:]))
	nwords := int(binary.LittleEndian.Uint32(b[25:]))
	if from >= maxWireNode {
		return Envelope{}, fmt.Errorf("cluster: envelope sender %d out of range", from)
	}
	if kind == byte(envAck) && (nsrcs != 0 || nwords != 0) {
		return Envelope{}, fmt.Errorf("cluster: ack envelope carries payload (%d images, %d words)", nsrcs, nwords)
	}
	if nsrcs == 0 && nwords != 0 {
		return Envelope{}, fmt.Errorf("cluster: %d words with zero images", nwords)
	}
	if nsrcs > 0 && nwords%nsrcs != 0 {
		return Envelope{}, fmt.Errorf("cluster: %d words not a multiple of %d images", nwords, nsrcs)
	}
	want := int64(envelopeHdrLen) + int64(nsrcs)*4 + int64(nwords)*8
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
	e.srcs = make([]uint32, 0, binfmt.PresizeCap(nsrcs, 4))
	for i := 0; i < nsrcs; i++ {
		e.srcs = binfmt.GrowEarned(e.srcs, 1, nsrcs)
		e.srcs = append(e.srcs, binary.LittleEndian.Uint32(b[off:]))
		off += 4
	}
	e.words = make([]uint64, 0, binfmt.PresizeCap(nwords, 8))
	for i := 0; i < nwords; i++ {
		e.words = binfmt.GrowEarned(e.words, 1, nwords)
		e.words = append(e.words, binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	return e, nil
}
