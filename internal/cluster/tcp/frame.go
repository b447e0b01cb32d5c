// Package tcp is the stdlib-net socket implementation of
// cluster.Transport plus the coordinator/joiner runtime behind the CLI's
// -listen/-join mode. Everything on the wire travels in one frame format
// borrowed from the GABS snapshot sections:
//
//	length u32 | body | crc32(body) u32      (little-endian, IEEE CRC)
//
// body[0] is the frame type; the rest is type-specific. The length
// counts the body only, is bounded by maxFrameBody, and the CRC lets a
// receiver reject corruption before interpreting a single payload byte —
// a corrupted frame kills the connection and the sender's retry/backoff
// path re-establishes it, exactly the failure mode the engine's
// at-least-once accounting is built for.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"graphabcd/internal/binfmt"
)

// errCRCMismatch marks a frame whose body arrived intact in length but
// failed its checksum. The stream is still frame-aligned after it — the
// length prefix was consumed before the damage was detected — so a
// receiver may drop just this frame and keep reading, where any other
// frame error means desync and must kill the connection.
var errCRCMismatch = errors.New("tcp: frame crc mismatch")

// Frame types. Transport data connections carry only fEnvelope; the
// coordinator's control connections carry the join/assign/section
// handshake and the termination protocol.
const (
	fEnvelope   byte = 1  // one wire-encoded cluster.Envelope
	fJoin       byte = 2  // joiner -> coordinator: here is my data address
	fAssign     byte = 3  // coordinator -> joiner: node id, run config, peers
	fSection    byte = 4  // coordinator -> joiner: one graph section chunk
	fReady      byte = 5  // joiner -> coordinator: graph assembled
	fStart      byte = 6  // coordinator -> joiner: begin the run
	fProbe      byte = 7  // coordinator -> joiner: report quiescence stats
	fProbeReply byte = 8  // joiner -> coordinator: stats vector
	fStop       byte = 9  // coordinator -> joiner: converged, send values
	fValues     byte = 10 // joiner -> coordinator: owned value chunk
	fDone       byte = 11 // either direction: clean end of protocol
	fError      byte = 12 // either direction: fatal error, utf-8 message
	fCkpt       byte = 13 // coordinator -> joiner: capture checkpoint epoch (u64)
	fCkptAck    byte = 14 // joiner -> coordinator: epoch (u64) state file durable
	fStats      byte = 15 // coordinator -> joiner: ship your telemetry delta
	fStatsReply byte = 16 // joiner -> coordinator: one NodeStats delta record
)

const (
	frameLenSize = 4
	frameCRCSize = 4
	// maxFrameBody bounds what a length prefix may claim. Envelope
	// batches and section chunks are sized well below this; anything
	// larger is hostile or corrupt.
	maxFrameBody = 1 << 20
)

// newFrame starts a frame body for the given type with room for the
// length prefix that sealFrame will fill in.
func newFrame(typ byte) []byte {
	b := make([]byte, frameLenSize, 256)
	return append(b, typ)
}

// sealFrame completes a frame started by newFrame (or any slice whose
// first frameLenSize bytes are reserved): it writes the length prefix
// and appends the body CRC, returning the ready-to-write frame.
func sealFrame(b []byte) []byte {
	body := b[frameLenSize:]
	binary.LittleEndian.PutUint32(b[:frameLenSize], uint32(len(body)))
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(body))
}

// readFrame reads one frame and returns its body (type byte included).
// The length prefix is bounds-checked before any allocation, the buffer
// grows only as payload bytes actually arrive, and a CRC mismatch is an
// error wrapping errCRCMismatch — recoverable by reading on, unlike
// every other error, on which the caller must kill the connection.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [frameLenSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < 1 || n > maxFrameBody {
		return nil, fmt.Errorf("tcp: frame length %d outside [1, %d]", n, maxFrameBody)
	}
	body := make([]byte, 0, binfmt.PresizeCap(n, 1))
	for len(body) < n {
		body = binfmt.GrowEarned(body, 1, n)
		take := cap(body) - len(body)
		if take > n-len(body) {
			take = n - len(body)
		}
		k, err := io.ReadFull(r, body[len(body):len(body)+take])
		body = body[:len(body)+k]
		if err != nil {
			return nil, fmt.Errorf("tcp: frame body truncated at %d/%d bytes: %w", len(body), n, err)
		}
	}
	var crc [frameCRCSize]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return nil, fmt.Errorf("tcp: frame crc truncated: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(crc[:]); got != want {
		return nil, fmt.Errorf("%w: computed %#x, wire says %#x", errCRCMismatch, got, want)
	}
	return body, nil
}
