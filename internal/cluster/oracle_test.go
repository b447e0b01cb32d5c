package cluster

import (
	"context"
	"slices"
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

// checkQuiescence is the exact distributed termination test of a
// generation whose nodes share one address space, ack-based so it stays
// exact under retries and duplicates. It was the in-process runtime's
// detector; the probe rounds replaced it, and it remains their oracle. It
// reads the schedulers' bits, never the outstanding counters that the
// probes' Quiet reads, so it checks them rather than trusting them.
//
// Order of observation: (1) snapshot the monotone per-node sent
// counters; (2) require every node's inflight == 0 — every logical batch
// ever created has been acked (the receiver raised the destination's
// active bit *before* sending the ack, and the sender decremented inflight
// only after processing the ack, so all resulting activations are
// visible); retries and duplicate deliveries never touch the counters,
// and duplicate acks find the unacked entry already gone; (3) require
// every node's active and in-flight bits clear — any worker still
// processing holds its block's in-flight bit; (4) require the sent
// counters unchanged and inflight still 0 — no new batch was created
// while we looked. Each sent counter is monotone, so an unchanged sum
// means every one of them held still across (2)–(3). If all four hold, no
// work exists anywhere.
func (s *Shared[V, M]) checkQuiescence() bool {
	s1, inflight := s.batchTotals()
	if inflight != 0 {
		return false
	}
	for _, n := range s.nodes {
		if n.Sched.Leftover() >= 0 {
			return false
		}
	}
	s2, inflight := s.batchTotals()
	return s2 == s1 && inflight == 0
}

// killingLane is a coordinator lane that runs kill when a probe round's
// answer is awaited.
type killingLane struct {
	Lane
	kill func()
}

func (l killingLane) Await(r Round) (Probe, error) {
	if r.Kind == RoundProbe {
		l.kill()
	}
	return l.Lane.Await(r)
}

// TestFailNodeBetweenQuietProbeRoundsRestarts kills a node of a settled
// cluster after the probe round that completes the quiet streak has read
// every node, the last moment before its coordinator declares
// quiescence. The generation must not be declared quiescent — the exact
// check never runs on it — and the run must restart and converge, with
// one declared quiescence, on the survivors.
func TestFailNodeBetweenQuietProbeRoundsRestarts(t *testing.T) {
	g := testGraph(t)
	cfg := baseCfg(3)
	cfg.Epsilon = 0
	c, err := newCluster(g, bcd.CC{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := c.gen.Load()
	first.tr.Bind(first.cfg.Nodes, c.deliver)
	shutdown := first.Start(context.Background())
	for deadline := time.Now().Add(10 * time.Second); !first.checkQuiescence(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			shutdown()
			t.Fatal("cluster never settled")
		}
	}
	co := c.coordinator(first)
	rounds, attempted := 0, false
	last := len(co.Lanes) - 1
	co.Lanes[last] = killingLane{Lane: co.Lanes[last], kill: func() {
		// Round 1 has no predecessor, rounds 2 and 3 are quiet: the
		// coordinator declares right after round 3.
		if rounds++; rounds == 3 {
			if err := c.FailNode(1); err != nil {
				t.Errorf("FailNode: %v", err)
			}
		}
	}}
	declare := co.Quiesced
	co.Quiesced = func() bool { attempted = true; return declare() }
	checked := oracleChecks.Load()
	declared, _, err := co.Run(context.Background())
	shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if !attempted || rounds != 3 {
		t.Fatalf("the streak did not complete at round 3: %d rounds, declaration attempted %v", rounds, attempted)
	}
	if declared || oracleChecks.Load() != checked {
		t.Fatal("a kill between the quiet rounds and the declaration let the generation be declared quiescent")
	}

	res, err := c.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged || res.Stats.NodesFailed != 1 {
		t.Fatalf("after the restart: converged %v, NodesFailed %d", res.Stats.Converged, res.Stats.NodesFailed)
	}
	if n := oracleChecks.Load() - checked; n != 1 {
		t.Fatalf("the exact check confirmed %d declared quiescences, want 1", n)
	}
	if len(c.gen.Load().nodes) != 2 {
		t.Fatalf("the restart runs %d nodes, want 2", len(c.gen.Load().nodes))
	}
	if want := bcd.RefCC(g); !slices.Equal(res.Values, want) {
		t.Fatal("labels after the restart differ from the reference")
	}
}
