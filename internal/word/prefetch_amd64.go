package word

// prefetchw issues PREFETCHW on the cache line of data[i*words] for each
// i in idx, in order, and returns the position in idx of the first i
// whose word lies outside data, or len(idx) (prefetch_amd64.s).
//
//go:noescape
func prefetchw(data []uint64, words int, idx []int64) int

// Prefetch asks for the cache line of the first word of each value in
// idx in a writable state and returns without waiting for them:
// PREFETCHW on amd64, one assembly loop for the whole run. It reads and
// writes no bytes, so it is not an access under the Go memory model, and
// a later locked store does not wait for it the way it waits for an
// earlier load. A writer about to store scattered slots prefetches them
// all first (core.Kernel.Scatter), so their ownership misses overlap.
// An index out of range panics, after the lines of the indices before
// it were requested.
func (a *Array[V]) Prefetch(idx []int64) {
	if prefetchw(a.data, a.words, idx) < len(idx) { //abcdlint:ignore atomicword,publish -- PREFETCHW moves a line, not bytes: no read or write of a word happens, so there is nothing for the atomic discipline to order
		panic("word: Prefetch index out of range")
	}
}
