package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manual clock: time only moves when the generator sleeps
// until a due time, so every due time and latency in the test is exact.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

// A request that stalls must not delay the due time or the launch of any
// later request, and its own latency is taken from its due time.
func TestOpenLoopStallDoesNotDelayLaterRequests(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	const n = 10
	const interval = 100 * time.Millisecond

	release := make(chan struct{})
	launched := make(chan int, n) // sized to the number of sends
	var mu sync.Mutex
	dues := make([]time.Time, n)
	latency := make([]time.Duration, n)

	done := make(chan []time.Duration, 1)
	go func() {
		done <- runOpenLoop(clk, start, interval, n, func(i int, due time.Time) {
			launched <- i
			if i == 0 {
				<-release // the stalled request: blocks until every other one has launched
			}
			mu.Lock()
			dues[i] = due
			latency[i] = clk.Now().Sub(due)
			mu.Unlock()
		})
	}()

	// All n requests launch while request 0 is still stalled.
	for got := 0; got < n; got++ {
		select {
		case <-launched:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d requests launched while request 0 was stalled", got, n)
		}
	}
	close(release)
	lateness := <-done

	for i := 0; i < n; i++ {
		if want := start.Add(time.Duration(i) * interval); !dues[i].Equal(want) {
			t.Errorf("request %d due at %v, want %v", i, dues[i], want)
		}
		if lateness[i] != 0 {
			t.Errorf("request %d launched %v late; a stalled earlier request must not delay it", i, lateness[i])
		}
	}
	// Request 0 finished when the clock stood at the last due time: its
	// latency counts from its own due time, the whole stall.
	if want := time.Duration(n-1) * interval; latency[0] != want {
		t.Errorf("stalled request's latency = %v, want %v (measured from its due time)", latency[0], want)
	}
}

// When the generator itself runs late, the lateness is reported and the
// request is still timed from when it was due.
func TestOpenLoopReportsGeneratorLateness(t *testing.T) {
	start := time.Unix(2000, 0)
	clk := &fakeClock{now: start.Add(250 * time.Millisecond)} // the generator wakes up late
	lateness := runOpenLoop(clk, start, 100*time.Millisecond, 4, func(int, time.Time) {})
	want := []time.Duration{250 * time.Millisecond, 150 * time.Millisecond, 50 * time.Millisecond, 0}
	for i := range want {
		if lateness[i] != want[i] {
			t.Errorf("lateness[%d] = %v, want %v", i, lateness[i], want[i])
		}
	}
}
