//go:build !amd64

package word

import "sync/atomic"

// Prefetch starts the first cache line of each value in idx on its way in
// with an ordinary load whose result is dropped; prefetch_amd64.go has the
// write-intent form and the contract.
func (a *Array[V]) Prefetch(idx []int64) {
	for _, i := range idx {
		atomic.LoadUint64(&a.data[i*int64(a.words)])
	}
}
