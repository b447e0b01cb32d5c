package word

import (
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestF64Roundtrip(t *testing.T) {
	c := F64{}
	if c.Words() != 1 {
		t.Fatalf("Words = %d", c.Words())
	}
	for _, v := range []float64{0, 1.5, -3.25, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		buf := make([]uint64, 1)
		c.Encode(v, buf)
		var out float64
		c.DecodeInto(buf, &out)
		if out != v {
			t.Errorf("roundtrip %g -> %g", v, out)
		}
	}
	// NaN round-trips as NaN.
	buf := make([]uint64, 1)
	c.Encode(math.NaN(), buf)
	var out float64
	c.DecodeInto(buf, &out)
	if !math.IsNaN(out) {
		t.Error("NaN did not round-trip")
	}
}

func TestU64Roundtrip(t *testing.T) {
	c := U64{}
	buf := make([]uint64, 1)
	for _, v := range []uint64{0, 1, math.MaxUint64, 1 << 40} {
		c.Encode(v, buf)
		var out uint64
		c.DecodeInto(buf, &out)
		if out != v {
			t.Errorf("roundtrip %d -> %d", v, out)
		}
	}
}

func TestVec32Roundtrip(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 7, 8, 16} {
		c := Vec32{Dim: dim}
		if got, want := c.Words(), (dim+1)/2; got != want {
			t.Fatalf("dim %d: Words = %d, want %d", dim, got, want)
		}
		v := make([]float32, dim)
		for i := range v {
			v[i] = float32(i)*1.5 - 3
		}
		buf := make([]uint64, c.Words())
		c.Encode(v, buf)
		var out []float32
		c.DecodeInto(buf, &out)
		for i := range v {
			if out[i] != v[i] {
				t.Errorf("dim %d lane %d: %g != %g", dim, i, out[i], v[i])
			}
		}
		// DecodeInto must reuse a correctly sized destination.
		prev := &out[0]
		c.DecodeInto(buf, &out)
		if &out[0] != prev {
			t.Errorf("dim %d: DecodeInto reallocated", dim)
		}
	}
}

func TestVec32EncodeDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on dimension mismatch")
		}
	}()
	Vec32{Dim: 4}.Encode([]float32{1}, make([]uint64, 2))
}

func TestArrayLoadStore(t *testing.T) {
	a := NewArray[float64](F64{}, 10)
	if a.Len() != 10 || a.Words() != 1 {
		t.Fatalf("Len=%d Words=%d", a.Len(), a.Words())
	}
	a.Store(3, 42.5)
	var v float64
	a.Load(3, &v)
	if v != 42.5 {
		t.Fatalf("Load = %g", v)
	}
	a.Load(0, &v)
	if v != 0 {
		t.Fatalf("zero value = %g", v)
	}
	a.Fill(7)
	for i := int64(0); i < 10; i++ {
		a.Load(i, &v)
		if v != 7 {
			t.Fatalf("Fill: slot %d = %g", i, v)
		}
	}
	if a.Bytes() != 80 {
		t.Fatalf("Bytes = %d", a.Bytes())
	}
}

func TestArrayVectors(t *testing.T) {
	c := Vec32{Dim: 5}
	a := NewArray[[]float32](c, 4)
	in := []float32{1, 2, 3, 4, 5}
	a.Store(2, in)
	var out []float32
	a.Load(2, &out)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("lane %d: %g != %g", i, out[i], in[i])
		}
	}
}

// Concurrent single-word stores must never tear: readers always observe a
// value some writer stored.
func TestArrayConcurrentNoTear(t *testing.T) {
	a := NewArray[float64](F64{}, 1)
	valid := map[float64]bool{0: true}
	vals := []float64{1.25, -9.5, 3e300, 0.001}
	for _, v := range vals {
		valid[v] = true
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, v := range vals {
		wg.Add(1)
		go func(v float64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					a.Store(0, v)
				}
			}
		}(v)
	}
	for i := 0; i < 10000; i++ {
		var got float64
		a.Load(0, &got)
		if !valid[got] {
			t.Fatalf("torn read: %g", got)
		}
	}
	close(stop)
	wg.Wait()
}

func TestFloatArray(t *testing.T) {
	f := NewFloatArray(3)
	if f.Len() != 3 {
		t.Fatalf("Len = %d", f.Len())
	}
	f.Store(1, 2.5)
	if f.Load(1) != 2.5 {
		t.Fatalf("Load = %g", f.Load(1))
	}
	if got := f.Add(1, 1.5); got != 4 {
		t.Fatalf("Add returned %g", got)
	}
	if got := f.Swap(1, 0); got != 4 {
		t.Fatalf("Swap returned %g", got)
	}
	if f.Load(1) != 0 {
		t.Fatalf("after Swap: %g", f.Load(1))
	}
}

func TestFloatArrayConcurrentAdd(t *testing.T) {
	f := NewFloatArray(1)
	const workers, adds = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				f.Add(0, 1)
			}
		}()
	}
	wg.Wait()
	if got := f.Load(0); got != workers*adds {
		t.Fatalf("concurrent Add lost updates: %g != %d", got, workers*adds)
	}
}

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Len() != 130 || b.Any() || b.Count() != 0 {
		t.Fatal("fresh bitset not empty")
	}
	if !b.Set(0) || !b.Set(64) || !b.Set(129) {
		t.Fatal("Set on clear bit returned false")
	}
	if b.Set(64) {
		t.Fatal("Set on set bit returned true")
	}
	if !b.Get(129) || b.Get(1) {
		t.Fatal("Get wrong")
	}
	if b.Count() != 3 || !b.Any() {
		t.Fatalf("Count = %d", b.Count())
	}
	if !b.Clear(64) || b.Clear(64) {
		t.Fatal("Clear semantics wrong")
	}
	if b.Count() != 2 {
		t.Fatalf("Count after clear = %d", b.Count())
	}
	if b.NumWords() != 3 || b.Word(0) != 1 || b.Word(1) != 0 || b.Word(2) != 1<<(129-128) {
		t.Fatalf("words = %d: %#x %#x %#x", b.NumWords(), b.Word(0), b.Word(1), b.Word(2))
	}
	if got := b.TakeWord(2); got != 1<<(129-128) || b.Get(129) || b.TakeWord(2) != 0 || !b.Get(0) {
		t.Fatalf("TakeWord returned %#x; it must clear its word and only its word", got)
	}
	b.SetAll()
	if b.Count() != 130 {
		t.Fatalf("SetAll: Count = %d", b.Count())
	}
}

func TestBitsetConcurrentSetClear(t *testing.T) {
	b := NewBitset(256)
	var set, cleared int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, c := int64(0), int64(0)
			for i := 0; i < 256; i++ {
				if b.Set(i) {
					s++
				}
				if w%2 == 0 && b.Clear(i) {
					c++
				}
			}
			mu.Lock()
			set += s
			cleared += c
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	// Successful sets = successful clears + bits left standing.
	if int(set-cleared) != b.Count() {
		t.Fatalf("set=%d cleared=%d count=%d", set, cleared, b.Count())
	}
}

// Property: any []float32 of bounded dim round-trips through Vec32.
func TestPropertyVec32Roundtrip(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		c := Vec32{Dim: len(raw)}
		buf := make([]uint64, c.Words())
		c.Encode(raw, buf)
		var out []float32
		c.DecodeInto(buf, &out)
		for i := range raw {
			a, b := raw[i], out[i]
			if a != b && !(a != a && b != b) { // NaN-tolerant compare
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRMW(t *testing.T) {
	a := NewArray[float64](F64{}, 4)
	a.Store(1, 9)
	buf := make([]uint64, 2)
	var cur float64
	a.RMW(1, buf, &cur, func(v float64) float64 { return v + 0.5 })
	a.Load(1, &cur)
	if cur != 9.5 {
		t.Fatalf("after RMW: %g", cur)
	}
	if !a.SingleWord() {
		t.Fatal("F64 array must be single-word")
	}
}

func TestRMWConcurrentAccumulation(t *testing.T) {
	a := NewArray[float64](F64{}, 1)
	const workers, adds = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]uint64, 2)
			var cur float64
			for i := 0; i < adds; i++ {
				a.RMW(0, buf, &cur, func(v float64) float64 { return v + 1 })
			}
		}()
	}
	wg.Wait()
	var got float64
	a.Load(0, &got)
	if got != workers*adds {
		t.Fatalf("RMW lost updates: %g != %d", got, workers*adds)
	}
}

func TestRMWPanicsOnMultiWord(t *testing.T) {
	a := NewArray[[]float32](Vec32{Dim: 4}, 2)
	if a.SingleWord() {
		t.Fatal("Vec32 dim 4 should be multi-word")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on multi-word RMW")
		}
	}()
	var cur []float32
	a.RMW(0, make([]uint64, 2), &cur, func(v []float32) []float32 { return v })
}

// The pre-encoded paths must leave exactly the words the per-value
// StoreBuf leaves: one value encoded once into every slot (StoreWords,
// Fill), and a Prefetch in between changes nothing.
func TestArrayWordStoresMatchStoreBuf(t *testing.T) {
	codec := Vec32{Dim: 3} // 2 words per value, one padding lane
	val := []float32{1.5, -2, 3.25}
	enc := make([]uint64, codec.Words())
	codec.Encode(val, enc)
	want, stored, filled := NewArray[[]float32](codec, 5), NewArray[[]float32](codec, 5), NewArray[[]float32](codec, 5)
	buf := make([]uint64, codec.Words())
	for i := int64(0); i < 5; i++ {
		want.StoreBuf(i, val, buf)
		stored.StoreWords(i, enc)
		stored.Prefetch([]int64{i})
	}
	filled.Fill(val)
	snap := func(a *Array[[]float32]) []uint64 {
		out := make([]uint64, 5*codec.Words())
		a.SnapshotWords(0, 5, out)
		return out
	}
	for name, a := range map[string]*Array[[]float32]{"StoreWords+Prefetch": stored, "Fill": filled} {
		if got := snap(a); !slices.Equal(got, snap(want)) {
			t.Errorf("%s left words %#x, StoreBuf leaves %#x", name, got, snap(want))
		}
	}
}

// Prefetch changes no value for an empty run, one index at either end,
// or a run over every value (repeats included) of arrays of 1-, 2- and
// 8-word values, and an index past either end panics as an indexed load
// does, alone or after in-range indices.
func TestPrefetchLeavesValues(t *testing.T) {
	for _, codec := range []Vec32{{Dim: 1}, {Dim: 3}, {Dim: 16}} {
		const n = 7
		a := NewArray[[]float32](codec, n)
		val := make([]float32, codec.Dim)
		for i := int64(0); i < n; i++ {
			for k := range val {
				val[k] = float32(i)*10 + float32(k) + 0.5
			}
			a.Store(i, val)
		}
		before := make([]uint64, n*codec.Words())
		a.SnapshotWords(0, n, before)
		a.Prefetch(nil)
		a.Prefetch([]int64{})
		a.Prefetch([]int64{0})
		a.Prefetch([]int64{int64(a.Len() - 1)})
		a.Prefetch([]int64{6, 0, 3, 3, 1, 5, 2, 4, 0})
		after := make([]uint64, n*codec.Words())
		a.SnapshotWords(0, n, after)
		if !slices.Equal(before, after) {
			t.Errorf("%d words: Prefetch changed %#x to %#x", codec.Words(), before, after)
		}
		for _, idx := range [][]int64{{-1}, {n}, {0, 2, n}, {n - 1, -1, 0}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%d words: Prefetch(%v) did not panic", codec.Words(), idx)
					}
				}()
				a.Prefetch(idx)
			}()
		}
	}
}

func TestArraySnapshotRestoreWords(t *testing.T) {
	a := NewArray[[]float32](Vec32{Dim: 3}, 10) // 2 words per value
	for i := int64(0); i < 10; i++ {
		a.Store(i, []float32{float32(i), float32(i) * 2, float32(i) * 3})
	}
	words := a.Words()
	dst := make([]uint64, 4*words)
	if n := a.SnapshotWords(3, 7, dst); n != 4*words {
		t.Fatalf("SnapshotWords wrote %d words, want %d", n, 4*words)
	}
	b := NewArray[[]float32](Vec32{Dim: 3}, 10)
	b.StoreWords(3, dst)
	var got []float32
	for i := int64(3); i < 7; i++ {
		b.Load(i, &got)
		for k, w := range []float32{float32(i), float32(i) * 2, float32(i) * 3} {
			if got[k] != w {
				t.Fatalf("restored[%d][%d] = %g, want %g", i, k, got[k], w)
			}
		}
	}
	// Values outside the restored range stay zero.
	b.Load(0, &got)
	if got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("restore touched value 0: %v", got)
	}
}

func TestFloatArraySnapshotRestoreBits(t *testing.T) {
	f := NewFloatArray(8)
	for i := 0; i < 8; i++ {
		f.Store(i, float64(i)*0.5)
	}
	bits := make([]uint64, 5)
	f.SnapshotBits(2, 7, bits)
	g := NewFloatArray(8)
	g.RestoreBits(2, bits)
	for i := 2; i < 7; i++ {
		if got, want := g.Load(i), float64(i)*0.5; got != want {
			t.Fatalf("restored[%d] = %g, want %g", i, got, want)
		}
	}
	if g.Load(0) != 0 || g.Load(7) != 0 {
		t.Fatal("restore touched elements outside the range")
	}
}

// TestSnapshotWordsConcurrent pins the fuzzy-capture contract: a snapshot
// taken while writers run contains, for every single-word value, some
// value that was actually stored — never a torn word.
func TestSnapshotWordsConcurrent(t *testing.T) {
	const n = 1024
	a := NewArray[uint64](U64{}, n)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]uint64, 1)
		for round := uint64(1); ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := int64(0); i < n; i++ {
				a.StoreBuf(i, round<<32|uint64(i), buf)
			}
		}
	}()
	dst := make([]uint64, n)
	for k := 0; k < 100; k++ {
		a.SnapshotWords(0, n, dst)
		for i, w := range dst {
			if w != 0 && uint32(w) != uint32(i) {
				t.Fatalf("snapshot[%d] = %#x: low half does not match any stored value", i, w)
			}
		}
	}
	close(stop)
	wg.Wait()
}
