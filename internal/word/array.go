package word

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Array is a fixed-length array of values of type V backed by atomically
// accessed uint64 words. Loads and stores of individual words are atomic;
// multi-word values are not read or written as a unit (bounded-staleness
// semantics, see the package comment).
type Array[V any] struct {
	codec Codec[V]
	words int
	data  []uint64 //abcd:stamped
}

// NewArray allocates an n-value array; all values decode from zero words.
func NewArray[V any](codec Codec[V], n int) *Array[V] {
	return Adopt(codec, make([]uint64, n*codec.Words()))
}

// Adopt wraps data, len(data)/codec.Words() values already encoded, as an
// Array: construct, then publish. The caller fills data with plain writes
// while no other goroutine can reach it, and hands it over here; from then
// on every access goes through the Array's atomics.
func Adopt[V any](codec Codec[V], data []uint64) *Array[V] {
	return &Array[V]{codec: codec, words: codec.Words(), data: data}
}

// Len returns the number of values.
func (a *Array[V]) Len() int { return len(a.data) / a.words }

// Words returns the words-per-value of the array's codec.
func (a *Array[V]) Words() int { return a.words }

// Load reads value i into *v with per-word atomic loads. It allocates a
// transfer buffer per call; hot paths should use LoadBuf with a reused
// buffer instead.
func (a *Array[V]) Load(i int64, v *V) {
	a.LoadBuf(i, v, make([]uint64, a.words))
}

// Store writes v into value i with per-word atomic stores. Hot paths
// should use StoreBuf with a reused buffer.
func (a *Array[V]) Store(i int64, v V) {
	a.StoreBuf(i, v, make([]uint64, a.words))
}

// LoadBuf is Load with a caller-provided transfer buffer of at least
// Words() entries, avoiding the per-call allocation (the buffer escapes
// through the codec interface, so a stack buffer cannot be used).
func (a *Array[V]) LoadBuf(i int64, v *V, buf []uint64) {
	base := i * int64(a.words)
	src := buf[:a.words]
	for w := range src {
		src[w] = atomic.LoadUint64(&a.data[base+int64(w)])
	}
	a.codec.DecodeInto(src, v)
}

// StoreBuf is Store with a caller-provided transfer buffer.
func (a *Array[V]) StoreBuf(i int64, v V, buf []uint64) {
	base := i * int64(a.words)
	dst := buf[:a.words]
	a.codec.Encode(v, dst)
	for w := range dst {
		atomic.StoreUint64(&a.data[base+int64(w)], dst[w])
	}
}

// Bytes returns the backing storage size in bytes, used by the accelerator
// model's traffic accounting.
func (a *Array[V]) Bytes() int64 { return int64(len(a.data)) * 8 }

// SnapshotWords copies the raw words of values [lo, hi) into dst with
// per-word atomic loads, returning the words written. Safe to call while
// writers run: each word is a consistent atomic read, so the copy is a
// valid bounded-staleness iterate (multi-word values may mix words from
// adjacent writes, the same semantics concurrent readers already see).
// dst must hold at least (hi-lo)*Words() entries.
func (a *Array[V]) SnapshotWords(lo, hi int64, dst []uint64) int {
	base := lo * int64(a.words)
	n := (hi - lo) * int64(a.words)
	for w := int64(0); w < n; w++ {
		dst[w] = atomic.LoadUint64(&a.data[base+w])
	}
	return int(n)
}

// GatherWords copies the raw words of values idx[0], idx[1], … into dst,
// in idx order, with per-word atomic loads, and returns the words
// written: SnapshotWords through an index, the gather's read of each
// in-edge's source image by the in-edge source ids. The same bounded
// staleness holds. dst must hold at least len(idx)*Words() entries.
func (a *Array[V]) GatherWords(idx []uint32, dst []uint64) int {
	if a.words == 1 {
		for i, u := range idx {
			dst[i] = atomic.LoadUint64(&a.data[u])
		}
		return len(idx)
	}
	n := 0
	for _, u := range idx {
		base := int64(u) * int64(a.words)
		for w := range int64(a.words) {
			dst[n] = atomic.LoadUint64(&a.data[base+w])
			n++
		}
	}
	return n
}

// StoreWords stores src's raw words into values [lo, lo+len/words) with
// per-word atomic stores and no codec call: one value a writer encoded
// once for many slots (SCATTER) or took off the wire already encoded, or
// a run of values — the checkpoint-resume inverse of SnapshotWords.
func (a *Array[V]) StoreWords(lo int64, src []uint64) {
	base := lo * int64(a.words)
	for w := range src {
		atomic.StoreUint64(&a.data[base+int64(w)], src[w])
	}
}

// FloatArray is an array of float64 supporting atomic CAS accumulation,
// used for block priorities (Gauss-Southwell gradient mass, Sec. IV-B).
type FloatArray struct {
	bits []uint64 //abcd:stamped
}

// NewFloatArray allocates an n-element zeroed float array.
func NewFloatArray(n int) *FloatArray { return &FloatArray{bits: make([]uint64, n)} }

// Len returns the element count.
func (f *FloatArray) Len() int { return len(f.bits) }

// Load atomically reads element i.
func (f *FloatArray) Load(i int) float64 {
	return math.Float64frombits(atomic.LoadUint64(&f.bits[i]))
}

// Store atomically writes element i.
func (f *FloatArray) Store(i int, v float64) {
	atomic.StoreUint64(&f.bits[i], math.Float64bits(v))
}

// Add atomically adds delta to element i via a CAS loop and returns the
// new value.
func (f *FloatArray) Add(i int, delta float64) float64 {
	for {
		old := atomic.LoadUint64(&f.bits[i])
		next := math.Float64frombits(old) + delta
		if atomic.CompareAndSwapUint64(&f.bits[i], old, math.Float64bits(next)) {
			return next
		}
	}
}

// Swap atomically replaces element i and returns the previous value.
func (f *FloatArray) Swap(i int, v float64) float64 {
	return math.Float64frombits(atomic.SwapUint64(&f.bits[i], math.Float64bits(v)))
}

// SnapshotBits copies the raw float64 bit patterns of elements [lo, hi)
// into dst with atomic loads; used by the checkpoint writer to capture
// scheduler priorities while workers keep accumulating.
func (f *FloatArray) SnapshotBits(lo, hi int, dst []uint64) {
	for i := lo; i < hi; i++ {
		dst[i-lo] = atomic.LoadUint64(&f.bits[i])
	}
}

// RestoreBits stores raw bit patterns into elements [lo, lo+len) — the
// resume inverse of SnapshotBits.
func (f *FloatArray) RestoreBits(lo int, src []uint64) {
	for i, v := range src {
		atomic.StoreUint64(&f.bits[lo+i], v)
	}
}

// Bitset is an atomic bitvector used for the active list and the in-flight
// block flags of the termination unit.
type Bitset struct {
	n     int
	words []uint64 //abcd:stamped
}

// NewBitset allocates an n-bit zeroed bitset.
func NewBitset(n int) *Bitset {
	return &Bitset{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of bits.
func (b *Bitset) Len() int { return b.n }

// Set atomically sets bit i, returning whether it was previously clear.
func (b *Bitset) Set(i int) bool {
	w, mask := i/64, uint64(1)<<uint(i%64)
	for {
		old := atomic.LoadUint64(&b.words[w])
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(&b.words[w], old, old|mask) {
			return true
		}
	}
}

// Clear atomically clears bit i, returning whether it was previously set.
func (b *Bitset) Clear(i int) bool {
	w, mask := i/64, uint64(1)<<uint(i%64)
	for {
		old := atomic.LoadUint64(&b.words[w])
		if old&mask == 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(&b.words[w], old, old&^mask) {
			return true
		}
	}
}

// Get atomically reads bit i.
func (b *Bitset) Get(i int) bool {
	return atomic.LoadUint64(&b.words[i/64])&(uint64(1)<<uint(i%64)) != 0
}

// NumWords returns the number of 64-bit words backing the set; bit i lives
// in word i/64 at position i%64.
func (b *Bitset) NumWords() int { return len(b.words) }

// Word atomically reads word w: bits 64w..64w+63, one load for a whole
// run of bits that a scan would otherwise Get one at a time.
func (b *Bitset) Word(w int) uint64 { return atomic.LoadUint64(&b.words[w]) }

// TakeWord atomically clears word w and returns the bits it held, so each
// set bit is taken by exactly one caller.
func (b *Bitset) TakeWord(w int) uint64 { return atomic.SwapUint64(&b.words[w], 0) }

// Any reports whether any bit is set.
func (b *Bitset) Any() bool {
	for w := range b.words {
		if atomic.LoadUint64(&b.words[w]) != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for w := range b.words {
		c += bits.OnesCount64(atomic.LoadUint64(&b.words[w]))
	}
	return c
}

// SetAll sets every bit. Not atomic as a whole; intended for initialization.
func (b *Bitset) SetAll() {
	for i := 0; i < b.n; i++ {
		b.Set(i)
	}
}
