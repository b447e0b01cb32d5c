package tcp

import (
	"bytes"
	"encoding/hex"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"graphabcd/internal/cluster"
)

func frameFixture() []byte {
	b := newFrame(fSection)
	b = append(b, []byte("payload-bytes")...)
	return sealFrame(b)
}

// TestFrameGolden pins the byte-level frame format: length prefix, type
// byte, body, IEEE CRC of the body. A format change must update this
// string knowingly.
func TestFrameGolden(t *testing.T) {
	const golden = "0e000000" + // body length: 1 type byte + 13 payload
		"04" + // fSection
		"7061796c6f61642d6279746573" + // "payload-bytes"
		"2a064ba3" // crc32("\x04payload-bytes")
	if got := hex.EncodeToString(frameFixture()); got != golden {
		t.Fatalf("frame encoding drifted:\n got  %s\n want %s", got, golden)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	// A stream of several frames, including a minimal one-byte body and
	// a large body, must come back intact and in order.
	big := newFrame(fValues)
	for i := 0; i < 100000; i++ {
		big = append(big, byte(i), byte(i>>8))
	}
	var stream bytes.Buffer
	frames := [][]byte{frameFixture(), sealFrame(newFrame(fDone)), sealFrame(big)}
	for _, f := range frames {
		stream.Write(f)
	}
	r := bytes.NewReader(stream.Bytes())
	for i, f := range frames {
		body, err := readFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if want := f[frameLenSize : len(f)-frameCRCSize]; !bytes.Equal(body, want) {
			t.Fatalf("frame %d body mismatch", i)
		}
	}
	if _, err := readFrame(r); err != io.EOF {
		t.Fatalf("exhausted stream should yield io.EOF, got %v", err)
	}
}

// TestFrameTruncation feeds every strict prefix of a valid frame to the
// reader; all of them must error, none may panic or hang.
func TestFrameTruncation(t *testing.T) {
	f := frameFixture()
	for n := 0; n < len(f); n++ {
		if _, err := readFrame(bytes.NewReader(f[:n])); err == nil {
			t.Fatalf("prefix of %d/%d bytes read without error", n, len(f))
		}
	}
}

// TestFrameBitflip flips one bit in every CRC-protected byte (body and
// trailing checksum); CRC32 detects all single-bit errors, so each flip
// must be rejected.
func TestFrameBitflip(t *testing.T) {
	f := frameFixture()
	for pos := frameLenSize; pos < len(f); pos++ {
		m := bytes.Clone(f)
		m[pos] ^= 0x40
		if _, err := readFrame(bytes.NewReader(m)); err == nil {
			t.Fatalf("bitflip at byte %d read without error", pos)
		} else if !strings.Contains(err.Error(), "crc") {
			t.Fatalf("bitflip at byte %d: want a crc error, got %v", pos, err)
		}
	}
}

func TestFrameRejectsHostileLength(t *testing.T) {
	for _, n := range []uint32{0, maxFrameBody + 1, 1 << 31, 0xffffffff} {
		hdr := []byte{byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24)}
		in := append(hdr, bytes.Repeat([]byte{0xab}, 64)...)
		if _, err := readFrame(bytes.NewReader(in)); err == nil {
			t.Fatalf("claimed length %d accepted", n)
		}
	}
}

// TestAssignRoundTrip encodes assignments with every field set to a
// distinct value and requires decodeAssign to return each one, the fixed
// part to be 77 bytes, and every strict prefix of the frame to be
// refused: the offsets decodeAssign reads are written by hand.
func TestAssignRoundTrip(t *testing.T) {
	for _, window := range []int{-1, 0, 7} {
		want := distAssign{
			node: 2, n: 1000, m: 5000, algo: algoSSSP, source: 17,
			cfg: cluster.Config{
				Nodes: 3, BlockSize: 64, WorkersPerNode: 5, BatchSize: 33,
				MaxUnacked: window, RetryDeadline: 9 * time.Second, Epsilon: 1.5e-9,
			},
			ckpt:  ckptPlan{dir: "/ckpt/dir", runID: "run-1", interval: 40 * time.Millisecond, resumeEpoch: 12},
			addrs: []string{"127.0.0.1:7001", "127.0.0.1:7002", "[::1]:7003"},
		}
		body := appendAssign(nil, want)
		variable := 2 + len(want.ckpt.dir) + 2 + len(want.ckpt.runID)
		for _, a := range want.addrs {
			variable += 2 + len(a)
		}
		if fixed := len(body) - variable; fixed != 77 {
			t.Fatalf("window %d: fixed part %d bytes, want 77", window, fixed)
		}
		got, err := decodeAssign(body)
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d: decoded %+v, encoded %+v", window, got, want)
		}
		for i := range body {
			if _, err := decodeAssign(body[:i]); err == nil {
				t.Fatalf("window %d: a %d-byte prefix of the %d-byte assignment decoded", window, i, len(body))
			}
		}
	}
}
