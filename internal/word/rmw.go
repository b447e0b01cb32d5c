package word

import "sync/atomic"

// This file provides single-word read-modify-write operations used by the
// engine's operation-based update mode (PageRank-Delta and friends):
// SCATTER must *accumulate* deltas into edge slots and GATHER must
// *consume* them, or concurrent updates overwrite each other — the exact
// hazard Sec. IV-A3 of the paper gives for preferring state-based updates.
// These operations are only defined for single-word codecs, where a CAS
// covers the whole value.

// SingleWord reports whether the array's values fit one word, the
// precondition for TakeWords and RMW.
func (a *Array[V]) SingleWord() bool { return a.words == 1 }

// TakeWords atomically swaps values [lo, hi) to the zero word, one word
// at a time, and copies the words they held into dst: each pending delta
// is taken by exactly one caller. It returns the words written. Panics
// on multi-word arrays.
func (a *Array[V]) TakeWords(lo, hi int64, zero uint64, dst []uint64) int {
	a.mustSingle()
	for i := lo; i < hi; i++ {
		dst[i-lo] = atomic.SwapUint64(&a.data[i], zero)
	}
	return int(hi - lo)
}

// RMW atomically applies f to value i via a CAS loop, decoding and
// encoding through buf (len >= 2). Panics on multi-word arrays. f may be
// called multiple times under contention and must be pure.
func (a *Array[V]) RMW(i int64, buf []uint64, cur *V, f func(V) V) {
	a.mustSingle()
	for {
		old := atomic.LoadUint64(&a.data[i])
		buf[0] = old
		a.codec.DecodeInto(buf[:1], cur)
		a.codec.Encode(f(*cur), buf[1:2])
		if atomic.CompareAndSwapUint64(&a.data[i], old, buf[1]) {
			return
		}
	}
}

func (a *Array[V]) mustSingle() {
	if a.words != 1 {
		panic("word: read-modify-write requires a single-word codec")
	}
}
