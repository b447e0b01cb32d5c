package main

import (
	"sync"
	"time"
)

// clock is the time source of the open-loop generator; tests substitute a
// fake so that due times and latencies are exact.
type clock interface {
	Now() time.Time
	// SleepUntil returns once Now() is at or after t.
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }
func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// maxInFlight bounds the open loop's concurrent requests. It is far above
// what the workloads reach at their rates (tens of requests per second,
// each under a second); hitting it would show as generator lateness.
const maxInFlight = 64

// runOpenLoop issues n requests on a fixed schedule: request i is due at
// start + i*interval whether or not earlier requests have returned, so a
// slow server receives the same load as a fast one and its queue shows
// (choosing-metrics §5). do is called on its own goroutine with the
// request's due time; callers time the request from due, not from when do
// began, which charges a generator stall to the requests it delayed.
// The returned lateness[i] is how long after its due time request i was
// actually launched. runOpenLoop returns when every request has finished.
func runOpenLoop(clk clock, start time.Time, interval time.Duration, n int, do func(i int, due time.Time)) []time.Duration {
	lateness := make([]time.Duration, n)
	sem := make(chan struct{}, maxInFlight) // counting semaphore
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		clk.SleepUntil(due)
		sem <- struct{}{}
		lateness[i] = clk.Now().Sub(due)
		wg.Add(1)
		//abcdlint:ignore goroutine -- deliberate load-generator fan-out: one goroutine per open-loop request, bounded by sem and joined by wg before return
		go func(i int, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			do(i, due)
		}(i, due)
	}
	wg.Wait()
	return lateness
}
