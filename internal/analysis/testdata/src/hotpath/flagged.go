// Package hotpath is an abcdlint fixture: the //abcd:hotpath contract.
package hotpath

import (
	"fmt"
	"sync"

	"graphabcd/internal/word"
)

type counters struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	vals []int
}

// AllocInHot allocates inside an annotated function.
//
//abcd:hotpath
func (c *counters) AllocInHot(n int) []int {
	buf := make([]int, n)      // want: make allocates
	c.vals = append(c.vals, n) // want: append may grow
	return buf
}

// NewInHot allocates with new inside an annotated function.
//
//abcd:hotpath
func (c *counters) NewInHot(n int) int {
	p := new(int) // want: new allocates
	*p = n
	return *p
}

// WordsInHot uses word.Array's allocating conveniences instead of
// LoadBuf/StoreBuf.
//
//abcd:hotpath
func WordsInHot(arr *word.Array[uint64], i int64) {
	var v uint64
	arr.Load(i, &v) // want: word.Array.Load
	arr.Store(i, v) // want: word.Array.Store
}

// LockInHot takes mutexes inside an annotated function.
//
//abcd:hotpath
func (c *counters) LockInHot(v int) {
	c.mu.Lock() // want: sync.Mutex.Lock
	c.vals[0] = v
	c.mu.Unlock() // want: sync.Mutex.Unlock
	c.rw.RLock()  // want: sync.RWMutex.RLock
	_ = c.vals[0]
	c.rw.RUnlock() // want: sync.RWMutex.RUnlock
}

// FormatInHot calls fmt from an annotated function, even inside a defer.
//
//abcd:hotpath
func (c *counters) FormatInHot(v int) {
	defer fmt.Println("done") // want: fmt allocates and reflects
	c.vals[0] = v
}

// SuppressedAmortized carries a justified suppression and stays quiet.
//
//abcd:hotpath
func (c *counters) SuppressedAmortized(v int) {
	c.vals = append(c.vals, v) //abcdlint:ignore hotpath -- amortized: capacity is retained across calls
}
