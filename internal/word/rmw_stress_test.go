package word

import (
	"runtime"
	"sync"
	"testing"
)

// TestRMWContentionStress hammers one Array with every worker the host
// offers, all CAS-incrementing a handful of shared slots. The final sum
// must be exact: RMW's CAS loop may retry but must never lose or double
// an update. Run under -race this also exercises the claim that the CAS
// loop is the only synchronization the operation-based SCATTER mode needs
// (paper Sec. IV-A3).
func TestRMWContentionStress(t *testing.T) {
	const slots = 4
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	iters := 2000
	if testing.Short() {
		iters = 200
	}

	a := NewArray[uint64](U64{}, slots)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]uint64, 2)
			var cur uint64
			for i := 0; i < iters; i++ {
				// Stride so every worker visits every slot, keeping all
				// slots contended rather than partitioned.
				slot := int64((w + i) % slots)
				a.RMW(slot, buf, &cur, func(v uint64) uint64 { return v + 1 })
			}
		}(w)
	}
	wg.Wait()

	var total, v uint64
	for s := int64(0); s < slots; s++ {
		a.Load(s, &v)
		total += v
	}
	if want := uint64(workers * iters); total != want {
		t.Fatalf("RMW dropped updates under contention: total %d, want %d", total, want)
	}
}

// TestTakeWordsContentionStress checks the exchange invariant of the
// gather side of operation-based updates: accumulators RMW-add into a
// run of slots while takers swap the whole run to zero. Every unit added
// is taken exactly once or still pending at the end.
func TestTakeWordsContentionStress(t *testing.T) {
	const slots = 5
	adders, takers := 4, 2
	iters := 2000
	if testing.Short() {
		iters = 200
	}
	a := NewArray[uint64](U64{}, slots)
	taken := make([]uint64, takers)
	var wg sync.WaitGroup
	for w := 0; w < adders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]uint64, 2)
			var cur uint64
			for i := 0; i < iters; i++ {
				a.RMW(int64((w+i)%slots), buf, &cur, func(v uint64) uint64 { return v + uint64(w) + 1 })
			}
		}(w)
	}
	for w := 0; w < takers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]uint64, slots)
			for i := 0; i < iters; i++ {
				lo := int64(i % 2) // takers overlap on different run starts
				for _, v := range dst[:a.TakeWords(lo, slots, 0, dst)] {
					taken[w] += v
				}
			}
		}(w)
	}
	wg.Wait()

	var total, v uint64
	for _, s := range taken {
		total += s
	}
	for s := int64(0); s < slots; s++ {
		a.Load(s, &v)
		total += v
	}
	var added uint64
	for w := 0; w < adders; w++ {
		added += uint64(iters) * (uint64(w) + 1)
	}
	if total != added {
		t.Fatalf("TakeWords lost or duplicated a delta: taken + pending %d != added %d", total, added)
	}
}
