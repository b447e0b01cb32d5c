package binfmt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"strings"
	"testing"
)

// refSection is the framing written the obvious way: header, the whole
// payload, its CRC.
func refSection(tag uint32, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, tag)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// TestSectionsAcrossBlockBoundaries writes every element kind at lengths
// on both sides of the staging block and the read chunk, checks the bytes
// against the reference framing, and reads them back.
func TestSectionsAcrossBlockBoundaries(t *testing.T) {
	for _, count := range []int{0, 1, blockSize/8 - 1, blockSize / 8, blockSize/8 + 1,
		blockSize/4 + 3, chunkSize/8 + 5, chunkSize/4 + 7} {
		u64 := make([]uint64, count)
		i64 := make([]int64, count)
		u32 := make([]uint32, count)
		f32 := make([]float32, count)
		raw := make([]byte, count)
		var ref []byte
		var want [5][]byte
		for i := range count {
			x := uint64(i+1) * 0x9e3779b97f4a7c15
			u64[i], i64[i], u32[i], f32[i], raw[i] = x, -int64(x>>1), uint32(x>>17), float32(i)/3, byte(x>>40)
			want[0] = binary.LittleEndian.AppendUint64(want[0], u64[i])
			want[1] = binary.LittleEndian.AppendUint64(want[1], uint64(i64[i]))
			want[2] = binary.LittleEndian.AppendUint32(want[2], u32[i])
			want[3] = binary.LittleEndian.AppendUint32(want[3], math.Float32bits(f32[i]))
		}
		want[4] = raw
		for tag, p := range want {
			ref = append(ref, refSection(uint32(tag+1), p)...)
		}

		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.U64s(1, u64)
		w.I64s(2, i64)
		w.U32s(3, u32)
		w.F32s(4, f32)
		w.Bytes(5, raw)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), ref) {
			t.Fatalf("count %d: writer bytes differ from the reference framing", count)
		}

		r := NewReader(bytes.NewReader(ref), "test:")
		gotU64, err := r.U64s(1, count)
		if err != nil || !equal(gotU64, u64) {
			t.Fatalf("count %d: u64s %v", count, err)
		}
		gotI64, err := r.I64s(2, count)
		if err != nil || !equal(gotI64, i64) {
			t.Fatalf("count %d: i64s %v", count, err)
		}
		gotU32, err := r.U32s(3, count)
		if err != nil || !equal(gotU32, u32) {
			t.Fatalf("count %d: u32s %v", count, err)
		}
		gotF32, err := r.F32s(4, count)
		if err != nil || !equal(gotF32, f32) {
			t.Fatalf("count %d: f32s %v", count, err)
		}
		gotRaw, err := r.Whole(5)
		if err != nil || !bytes.Equal(gotRaw, raw) {
			t.Fatalf("count %d: whole %v", count, err)
		}
	}
}

func equal[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReaderRefusals: a wrong tag, a wrong exact length, a flipped payload
// bit and a truncation are each refused with the caller's prefix.
func TestReaderRefusals(t *testing.T) {
	good := refSection(7, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	flip := bytes.Clone(good)
	flip[SecHdrLen+2] ^= 1
	for name, c := range map[string]struct {
		in   []byte
		tag  uint32
		want string
	}{
		"tag":       {good, 8, "section tag 7, want 8"},
		"length":    {refSection(8, []byte{1, 2, 3}), 8, "section 8 is 3 bytes, want 8"},
		"crc":       {flip, 7, "checksum mismatch"},
		"truncated": {good[:len(good)-6], 7, "section 7 payload"},
	} {
		_, err := NewReader(bytes.NewReader(c.in), "fmt:").U64s(c.tag, 1)
		if err == nil || !strings.HasPrefix(err.Error(), "fmt: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, c.want)
		}
	}
}

// TestHostileLengthCostsOnlyDeliveredBytes: a section claiming 2^40
// elements backed by 16 bytes must fail without a large allocation.
func TestHostileLengthCostsOnlyDeliveredBytes(t *testing.T) {
	in := binary.LittleEndian.AppendUint32(nil, 1)
	in = binary.LittleEndian.AppendUint64(in, 8<<40)
	in = append(in, make([]byte, 16)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := NewReader(bytes.NewReader(in), "x:").U64s(1, 1<<40); err == nil {
		t.Fatal("a 2^40-element claim over 16 bytes decoded")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("a hostile length cost %d bytes of allocation", grew)
	}
	if got := PresizeCap(1<<40, 8); got*8 > 4<<20 {
		t.Fatalf("PresizeCap let %d bytes through", got*8)
	}
	if s := GrowEarned(make([]byte, 16), 1, 1<<40); cap(s) != 64 {
		t.Fatalf("GrowEarned grew a full 16-byte slice to capacity %d, want 64", cap(s))
	}
}
