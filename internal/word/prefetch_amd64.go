package word

// prefetchw is PREFETCHW on the cache line holding *addr
// (prefetch_amd64.s).
//
//go:noescape
func prefetchw(addr *uint64)

// Prefetch asks for the cache line of value i's first word in a writable
// state and returns without waiting for it: PREFETCHW on amd64. It reads
// and writes no bytes, so it is not an access under the Go memory model,
// and a later locked store does not wait for it the way it waits for an
// earlier load. A writer about to store scattered slots prefetches them
// all first (core.Kernel.Scatter), so their ownership misses overlap.
// An index out of range panics, as an indexed load does.
func (a *Array[V]) Prefetch(i int64) {
	prefetchw(&a.data[i*int64(a.words)]) //abcdlint:ignore atomicword,publish -- PREFETCHW moves a line, not bytes: no read or write of the word happens, so there is nothing for the atomic discipline to order
}
