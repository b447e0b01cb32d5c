package boundalloc

import (
	"encoding/binary"
	"errors"
)

var errMismatch = errors.New("boundalloc: header mismatch")

// DecodeClamped launders the decoded size through the clamp, both inline
// and via an intermediate variable.
func DecodeClamped(hdr []byte) ([]uint64, []byte) {
	n := int(binary.LittleEndian.Uint64(hdr[:8]))
	vals := make([]uint64, 0, PresizeCap(n, 8))
	capped := PresizeCap(n, 1)
	raw := make([]byte, capped)
	return vals, raw
}

// DecodeValidated allocates from already-trusted state after checking the
// decoded value against it.
func DecodeValidated(hdr []byte, trusted int) ([]uint64, error) {
	n := int(binary.LittleEndian.Uint64(hdr[:8]))
	if n != trusted {
		return nil, errMismatch
	}
	return make([]uint64, trusted), nil
}

// FixedSize allocations are none of the rule's business.
func FixedSize(hdr []byte) []byte {
	_ = int(binary.LittleEndian.Uint64(hdr[:8]))
	return make([]byte, 64)
}
