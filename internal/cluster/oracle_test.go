package cluster

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"graphabcd/internal/bcd"
)

// oracleChecks counts the declared quiescences the exact check has
// confirmed in this test binary.
var oracleChecks atomic.Int64

// Every in-process run a test of this package starts — directly or
// through the external test package — has each declared quiescence
// confirmed by the exact shared-memory check below; a refuted one fails
// the test binary on the spot.
func init() {
	quiescedHook = func(run any) {
		if !run.(interface{ checkQuiescence() bool }).checkQuiescence() {
			panic("cluster: the coordinator declared quiescence the exact shared-memory check refutes")
		}
		oracleChecks.Add(1)
	}
}

// checkQuiescence is the exact distributed termination test of a run
// whose nodes share one address space, ack-based so it stays exact under
// retries, duplicates, and node death. It was the in-process runtime's
// detector; the probe rounds replaced it, and it remains their oracle.
//
// Order of observation: (1) snapshot the failure count and the monotone
// per-node sent counters; (2) require no failover rebuild in progress —
// a rebuild is about to re-activate blocks, so the system is not quiet;
// (3) require every node's inflight == 0 — every logical batch ever
// created has either been acked (the receiver raised the destination's
// active bit *before* sending the ack, and the sender decremented
// inflight only after processing the ack, so all resulting activations
// are visible) or been abandoned at a failed node *after* the rebuild
// that compensates for it started, which step (2) covers; retries and
// duplicate deliveries never touch the counters, and duplicate acks find
// the unacked entry already gone; (4) require every live node quiescent
// — any worker still processing holds its block in-flight and would fail
// this (dead nodes' scheduler state is orphaned by reassignment and
// excluded); (5) require the sent counters and the failure count
// unchanged and still no rebuild — no new batch was created and no
// failover began while we looked. Each sent counter is monotone, so an
// unchanged sum means every one of them held still across steps (2)–(4),
// during which inflight could only fall. If all five hold, no work
// exists anywhere.
func (c *clusterRun[V, M]) checkQuiescence() bool {
	failures := c.failures.Load()
	s1, inflight := c.batchTotals()
	if c.recovering.Load() != 0 || inflight != 0 {
		return false
	}
	for _, n := range c.nodes {
		if !c.dead[n.ID].Load() && !n.Sched.Quiescent() {
			return false
		}
	}
	s2, inflight := c.batchTotals()
	return s2 == s1 && inflight == 0 && c.recovering.Load() == 0 && c.failures.Load() == failures
}

// TestFailNodeBetweenProbeRoundsResetsQuietStreak runs a whole failover
// between two probe rounds of a settled cluster and lets the heirs
// re-process what it re-activated. At CC's fixed point that sends and
// applies nothing, so the two rounds differ only in the failure count —
// which must break the quiet streak.
func TestFailNodeBetweenProbeRoundsResetsQuietStreak(t *testing.T) {
	cfg := baseCfg(3)
	cfg.Epsilon = 0
	c, err := newCluster(testGraph(t), bcd.CC{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shutdown := c.Start(context.Background(), c.deliver, c.nodes...)
	defer shutdown()
	co := c.coordinator()
	settle := func() {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !c.checkQuiescence(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatal("cluster never settled")
			}
		}
	}
	round := func() []Probe {
		t.Helper()
		r, _, err := co.round(Round{Kind: RoundProbe})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	settle()
	r0 := round()
	r1 := round()
	if !quiet(r0, r1) {
		t.Fatalf("two rounds of a settled cluster do not extend a streak: %+v then %+v", r0, r1)
	}
	if err := c.FailNode(1); err != nil {
		t.Fatal(err)
	}
	settle()
	r2 := round()
	if quiet(r1, r2) {
		t.Fatalf("a failover between two probe rounds kept the quiet streak: %+v then %+v", r1, r2)
	}
	if r3 := round(); !quiet(r2, r3) {
		t.Fatalf("the streak did not restart after the failover: %+v then %+v", r2, r3)
	}
}
