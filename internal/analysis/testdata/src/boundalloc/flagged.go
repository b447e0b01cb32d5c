// Package boundalloc is an abcdlint fixture: allocation sizes decoded from
// input bytes must flow through a recognized clamp.
package boundalloc

import "encoding/binary"

// PresizeCap mirrors internal/binfmt's clamp helper: upfront capacity is
// bounded no matter what the header claims.
func PresizeCap(want, entryBytes int) int {
	const maxBytes = 4 << 20
	if want <= 0 || entryBytes <= 0 {
		return 0
	}
	if want > maxBytes/entryBytes {
		return maxBytes / entryBytes
	}
	return want
}

// DecodeUnclamped sizes allocations straight from the decoded header.
func DecodeUnclamped(hdr []byte) ([]uint64, []byte) {
	n := int(binary.LittleEndian.Uint64(hdr[:8]))
	vals := make([]uint64, n)       // want: unclamped decoded length
	raw := make([]byte, 0, 8*(n+1)) // want: unclamped decoded capacity
	return vals, raw
}

// DecodeVarint taints through a varint result and arithmetic on it.
func DecodeVarint(buf []byte) []byte {
	m, _ := binary.Uvarint(buf)
	size := int(m) * 8
	return make([]byte, size) // want: unclamped varint size
}

// DecodeSuppressed documents an out-of-band bound and stays quiet.
func DecodeSuppressed(hdr []byte) []byte {
	n := int(binary.LittleEndian.Uint64(hdr[:8]))
	//abcdlint:ignore boundalloc -- caller validated the header length against the file size
	return make([]byte, n)
}
