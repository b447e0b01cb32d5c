package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Latch is a run's one-shot stop signal together with the first error
// that caused it, if any. The engine and cluster.Shared both embed it.
// Stopped is the cheap poll hot loops read; Done is the same fact as a
// closed channel for goroutines parked in a select, which cannot poll.
type Latch struct {
	failure atomic.Pointer[error]
	stopped atomic.Bool
	done    chan struct{}
	once    sync.Once
}

func NewLatch() *Latch { return &Latch{done: make(chan struct{})} }

// Stop trips the latch without recording an error.
func (l *Latch) Stop() {
	l.stopped.Store(true)
	l.once.Do(func() { close(l.done) })
}

// Fail records err if it is the run's first failure and trips the latch.
func (l *Latch) Fail(err error) {
	l.failure.CompareAndSwap(nil, &err)
	l.Stop()
}

func (l *Latch) Stopped() bool         { return l.stopped.Load() }
func (l *Latch) Done() <-chan struct{} { return l.done }

// Err returns the recorded failure, if any.
func (l *Latch) Err() error {
	if p := l.failure.Load(); p != nil {
		return *p
	}
	return nil
}

// Recover converts a panic on the calling goroutine into a run failure
// instead of a process crash. Deferred directly at every worker-goroutine
// boundary; what names the layer ("core: worker panic").
func (l *Latch) Recover(what string) {
	if r := recover(); r != nil {
		l.Fail(fmt.Errorf("%s: %v", what, r))
	}
}
