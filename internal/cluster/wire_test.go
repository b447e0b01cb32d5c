package cluster

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"
	"time"
)

func wireFixture() Envelope {
	return NewDataEnvelope(3, 0x0102030405060708, time.Unix(0, 0x11223344),
		[]uint32{7, 42}, []uint64{0xdeadbeef, 0xcafe, 1, 0})
}

// parentFrame is a data envelope in the per-slot layout before the image
// one (kind 0: slots u64, blocks u32, then words), as that codec wrote
// it; this codec must refuse it.
const parentFrame = "00" + "03000000" + "0807060504030201" + "4433221100000000" +
	"02000000" + "04000000" +
	"0700000000000000" + "2a00000000000000" + "01000000" + "05000000" +
	"efbeadde00000000" + "feca000000000000" + "0100000000000000" + "0000000000000000"

// TestEnvelopeGolden pins the byte-level encoding: a codec change that
// alters the wire format must consciously update this hex string.
func TestEnvelopeGolden(t *testing.T) {
	const golden = "02" + // kind: images
		"03000000" + // from: 3
		"0807060504030201" + // id
		"4433221100000000" + // sentAt unix nanos
		"02000000" + // nsrcs
		"04000000" + // nwords
		"07000000" + "2a000000" + // srcs
		"efbeadde00000000" + "feca000000000000" +
		"0100000000000000" + "0000000000000000" // words
	enc := AppendEnvelope(nil, wireFixture())
	if got := hex.EncodeToString(enc); got != golden {
		t.Fatalf("encoding drifted:\n got  %s\n want %s", got, golden)
	}
	if len(enc) != EnvelopeWireSize(wireFixture()) {
		t.Fatalf("EnvelopeWireSize %d, encoded %d", EnvelopeWireSize(wireFixture()), len(enc))
	}
}

func sameEnvelope(t *testing.T, a, b Envelope) {
	t.Helper()
	if a.kind != b.kind || a.from != b.from || a.id != b.id || !a.sentAt.Equal(b.sentAt) {
		t.Fatalf("header mismatch: %+v vs %+v", a, b)
	}
	if len(a.srcs) != len(b.srcs) || len(a.words) != len(b.words) {
		t.Fatalf("payload length mismatch: %+v vs %+v", a, b)
	}
	for i := range a.srcs {
		if a.srcs[i] != b.srcs[i] {
			t.Fatalf("src %d mismatch", i)
		}
	}
	for i := range a.words {
		if a.words[i] != b.words[i] {
			t.Fatalf("word %d mismatch", i)
		}
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	envs := []Envelope{
		wireFixture(),
		NewAck(12, 99),
		NewDataEnvelope(0, 0, time.Time{}, nil, nil),
	}
	for i := 0; i < 50; i++ {
		ns := rng.Intn(20)
		words := ns * (1 + rng.Intn(3))
		e := Envelope{kind: envImages, from: rng.Intn(64), id: rng.Uint64(),
			srcs: make([]uint32, ns), words: make([]uint64, words)}
		for j := range e.srcs {
			e.srcs[j] = rng.Uint32()
		}
		for j := range e.words {
			e.words[j] = rng.Uint64()
		}
		if rng.Intn(2) == 0 {
			e.sentAt = time.Unix(0, int64(rng.Uint32())+1)
		}
		envs = append(envs, e)
	}
	for i, e := range envs {
		enc := AppendEnvelope(nil, e)
		dec, err := DecodeEnvelope(enc)
		if err != nil {
			t.Fatalf("env %d: %v", i, err)
		}
		sameEnvelope(t, e, dec)
	}
}

// TestEnvelopeTruncation checks every strict prefix of a valid encoding
// is rejected: the declared counts must match the byte length exactly.
func TestEnvelopeTruncation(t *testing.T) {
	enc := AppendEnvelope(nil, wireFixture())
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeEnvelope(enc[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(enc))
		}
	}
	if _, err := DecodeEnvelope(append(bytes.Clone(enc), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestEnvelopeRejectsMalformed(t *testing.T) {
	mangle := func(f func(b []byte)) []byte {
		b := AppendEnvelope(nil, wireFixture())
		f(b)
		return b
	}
	cases := map[string][]byte{
		"unknown kind": mangle(func(b []byte) { b[0] = 9 }),
		"kind 0":       mangle(func(b []byte) { b[0] = 0 }),
		"parent frame": func() []byte {
			b, err := hex.DecodeString(parentFrame)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}(),
		"sender range":  mangle(func(b []byte) { b[3] = 0xff }),
		"count forgery": mangle(func(b []byte) { b[21] = 3 }),
		"orphan words": func() []byte {
			b := AppendEnvelope(nil, NewAck(1, 2))
			b[25] = 4 // claim words on a payload-free ack
			return b
		}(),
	}
	for name, b := range cases {
		if _, err := DecodeEnvelope(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// An ack whose kind byte says data must fail the multiple-of check
	// or the length check, never panic.
	b := AppendEnvelope(nil, NewAck(1, 2))
	b[0] = byte(envImages)
	if _, err := DecodeEnvelope(b); err != nil {
		t.Fatalf("payload-free data envelope should be legal: %v", err)
	}
}

func FuzzEnvelopeDecode(f *testing.F) {
	f.Add(AppendEnvelope(nil, wireFixture()))
	f.Add(AppendEnvelope(nil, NewAck(2, 77)))
	f.Add(AppendEnvelope(nil, NewDataEnvelope(1, 9, time.Time{}, []uint32{3}, []uint64{5, 6, 7})))
	f.Add(AppendEnvelope(nil, NewDataEnvelope(0, 0, time.Time{}, nil, nil)))
	if b, err := hex.DecodeString(parentFrame); err == nil {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, envelopeHdrLen))
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := DecodeEnvelope(b)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode to the identical bytes.
		if got := AppendEnvelope(nil, e); !bytes.Equal(got, b) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", b, got)
		}
	})
}
