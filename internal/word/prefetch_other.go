//go:build !amd64

package word

import "sync/atomic"

// Prefetch starts value i's first cache line on its way in with an
// ordinary load whose result is dropped; prefetch_amd64.go has the
// write-intent form and the contract.
func (a *Array[V]) Prefetch(i int64) {
	atomic.LoadUint64(&a.data[i*int64(a.words)])
}
