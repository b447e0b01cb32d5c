// Package word provides the lock-free shared-state substrate of GraphABCD:
// fixed-width value codecs, atomically accessed word arrays, an atomic
// bitset, and CAS-accumulated float arrays.
//
// Every mutable value shared between the asynchronous engine's stages
// (vertex values, scatter images, per-edge pending deltas, active bits,
// block priorities) lives in one of these structures, accessed exclusively with
// sync/atomic word operations. This realizes the paper's "barrierless and
// lock-free" design (Sec. IV-A3) while remaining data-race-free under the
// Go memory model: readers of multi-word values may observe a mix of old
// and new words, which asynchronous BCD tolerates as bounded staleness
// (Sec. III-D). Array.Prefetch is not an access: it moves a cache line
// and reads or writes no bytes of it.
package word

import "math"

// Codec translates values of type V to and from a fixed number of uint64
// words. Implementations must be stateless and safe for concurrent use.
type Codec[V any] interface {
	// Words returns the number of uint64 words per value; constant.
	Words() int
	// Encode writes v into dst, which has exactly Words() entries.
	Encode(v V, dst []uint64)
	// DecodeInto reads a value from src into *v, reusing v's storage
	// where possible (slices of the right length are overwritten in
	// place, so hot paths do not allocate).
	DecodeInto(src []uint64, v *V)
}

// F64 encodes a float64 in one word.
type F64 struct{}

// Words implements Codec.
func (F64) Words() int { return 1 }

// Encode implements Codec.
func (F64) Encode(v float64, dst []uint64) { dst[0] = math.Float64bits(v) }

// DecodeInto implements Codec.
func (F64) DecodeInto(src []uint64, v *float64) { *v = math.Float64frombits(src[0]) }

// U64 encodes a uint64 in one word (labels, levels, counters).
type U64 struct{}

// Words implements Codec.
func (U64) Words() int { return 1 }

// Encode implements Codec.
func (U64) Encode(v uint64, dst []uint64) { dst[0] = v }

// DecodeInto implements Codec.
func (U64) DecodeInto(src []uint64, v *uint64) { *v = src[0] }

// Vec32 encodes a fixed-dimension []float32 vector, two lanes per word.
// All values in one array must share the dimension given at construction.
type Vec32 struct{ Dim int }

// Words implements Codec.
func (c Vec32) Words() int { return (c.Dim + 1) / 2 }

// Encode implements Codec. v must have length Dim.
func (c Vec32) Encode(v []float32, dst []uint64) {
	if len(v) != c.Dim {
		panic("word: Vec32.Encode dimension mismatch")
	}
	for w := range dst {
		lo := uint64(math.Float32bits(v[2*w]))
		hi := uint64(0)
		if 2*w+1 < c.Dim {
			hi = uint64(math.Float32bits(v[2*w+1]))
		}
		dst[w] = lo | hi<<32
	}
}

// DecodeInto implements Codec. It reuses *v when it already has length Dim.
func (c Vec32) DecodeInto(src []uint64, v *[]float32) {
	if len(*v) != c.Dim {
		*v = make([]float32, c.Dim) //abcdlint:ignore hotpath -- grow-once: steady state reuses *v, this runs only on first decode
	}
	out := *v
	for w, word := range src {
		out[2*w] = math.Float32frombits(uint32(word))
		if 2*w+1 < c.Dim {
			out[2*w+1] = math.Float32frombits(uint32(word >> 32))
		}
	}
}
