// Convergence equivalence under injected faults: the experiments backing
// DESIGN.md §8. State-based programs must reach the same fixed point
// through a transport that drops 20% of messages, duplicates 10%,
// reorders via per-delivery jitter, and loses a node mid-run — because
// every mechanism the cluster layers on top (at-least-once retries,
// write-stamped applies, failover re-scatter) exists to make exactly
// that true.
package chaos_test

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/chaos"
	"graphabcd/internal/cluster"
	"graphabcd/internal/gen"
	"graphabcd/internal/graph"
)

func chaosGraph(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	cfg := gen.DefaultRMAT(9, 6, seed)
	cfg.MaxWeight = 16
	g, err := gen.RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// faultyCfg wires a node cluster to the standard fault mix: 20% drop,
// 10% duplication, and delivery jitter wide enough to reorder batches.
// killNode, when >= 0, is failed after the transport has carried
// afterBatches envelopes.
func faultyCfg(nodes int, seed uint64, killNode int) cluster.Config {
	tcfg := chaos.Config{
		Seed:     seed,
		DropRate: 0.20,
		DupRate:  0.10,
		MaxDelay: 300 * time.Microsecond,
	}
	// The Control handle arrives via OnStart; the fault trigger fires on
	// its own goroutine from inside the transport, so hand the handle
	// over through a buffered channel.
	ctl := make(chan cluster.Control, 1)
	if killNode >= 0 {
		tcfg.AfterBatches = 20
		tcfg.OnFault = func() {
			c := <-ctl
			// An error here means the kill lost a race (run already
			// stopping); the Stats.NodesFailed assertions catch a kill
			// that silently never happened.
			_ = c.FailNode(killNode)
		}
	}
	cfg := cluster.Config{
		Nodes:          nodes,
		BlockSize:      32,
		WorkersPerNode: 2,
		Epsilon:        1e-12,
		BatchSize:      8,
		Transport:      chaos.New(tcfg),
	}
	if killNode >= 0 {
		cfg.OnStart = func(c cluster.Control) { ctl <- c }
	}
	return cfg
}

func TestChaosPageRankEquivalence(t *testing.T) {
	g := chaosGraph(t, 77)
	want := bcd.RefPageRank(g, 0.85, 1e-13, 1000)
	cfg := faultyCfg(4, 1, 2)
	res, err := cluster.Run[float64, float64](context.Background(), g, bcd.PageRank{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("did not converge under chaos")
	}
	for v := range want {
		if d := math.Abs(res.Values[v] - want[v]); d > 1e-7 {
			t.Fatalf("rank[%d] off by %g under chaos", v, d)
		}
	}
	if res.Stats.NodesFailed != 1 {
		t.Fatalf("NodesFailed = %d, want 1", res.Stats.NodesFailed)
	}
	if res.Stats.BatchesDropped == 0 || res.Stats.BatchesDuplicated == 0 {
		t.Fatalf("fault counters empty: dropped=%d duplicated=%d",
			res.Stats.BatchesDropped, res.Stats.BatchesDuplicated)
	}
	if res.Stats.BatchesRetried == 0 {
		t.Fatal("20% drop produced no retries")
	}
}

func TestChaosSSSPEquivalence(t *testing.T) {
	g := chaosGraph(t, 78)
	src := uint32(3)
	want := bcd.RefSSSP(g, src)
	cfg := faultyCfg(3, 2, 1)
	cfg.Epsilon = 0
	res, err := cluster.Run[float64, float64](context.Background(), g, bcd.SSSP{Source: src}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		got := res.Values[v]
		if got != want[v] && !(math.IsInf(got, 1) && math.IsInf(want[v], 1)) {
			t.Fatalf("dist[%d] = %g, want %g under chaos", v, got, want[v])
		}
	}
}

func TestChaosCCEquivalence(t *testing.T) {
	g := chaosGraph(t, 79)
	want := bcd.RefCC(g)
	cfg := faultyCfg(3, 3, 0)
	cfg.Epsilon = 0
	res, err := cluster.Run[uint64, uint64](context.Background(), g, bcd.CC{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if res.Values[v] != want[v] {
			t.Fatalf("cc[%d] = %d, want %d under chaos", v, res.Values[v], want[v])
		}
	}
}

// Drop-only chaos isolates the at-least-once machinery: every lost batch
// must be retransmitted until acked, and the fixed point must come out
// exact — no faults papered over by the epsilon threshold.
func TestChaosAtLeastOnceAccounting(t *testing.T) {
	g := chaosGraph(t, 80)
	want := bcd.RefPageRank(g, 0.85, 1e-13, 1000)
	tr := chaos.New(chaos.Config{Seed: 9, DropRate: 0.25})
	cfg := cluster.Config{
		Nodes:          4,
		BlockSize:      32,
		WorkersPerNode: 2,
		Epsilon:        1e-12,
		BatchSize:      8,
		Transport:      tr,
	}
	res, err := cluster.Run[float64, float64](context.Background(), g, bcd.PageRank{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("did not converge under drop-only chaos")
	}
	if res.Stats.BatchesRetried < res.Stats.BatchesDropped {
		t.Fatalf("retries (%d) must cover at least the drops (%d)",
			res.Stats.BatchesRetried, res.Stats.BatchesDropped)
	}
	for v := range want {
		if d := math.Abs(res.Values[v] - want[v]); d > 1e-7 {
			t.Fatalf("rank[%d] off by %g", v, d)
		}
	}
}

// A partition separating live nodes is the declared limit of the fault
// model: retries cannot cross it, so the run must fail loudly at the
// retry deadline instead of hanging in a quiescence livelock.
func TestChaosPartitionExceedsDeadline(t *testing.T) {
	g := chaosGraph(t, 81)
	tr := chaos.New(chaos.Config{Seed: 4, Partitions: [][2]int{{0, 1}}})
	cfg := cluster.Config{
		Nodes:          2,
		BlockSize:      32,
		WorkersPerNode: 2,
		Epsilon:        1e-12,
		BatchSize:      8,
		RetryDeadline:  50 * time.Millisecond,
		Transport:      tr,
	}
	start := time.Now()
	_, err := cluster.Run[float64, float64](context.Background(), g, bcd.PageRank{}, cfg)
	if err == nil {
		t.Fatal("partitioned run must fail at the retry deadline")
	}
	if !strings.Contains(err.Error(), "undelivered") {
		t.Fatalf("error should name the undelivered batch, got: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("partition detection took %v", elapsed)
	}
}

// Under the full fault mix with a mid-run kill, every goroutine the run
// and the transport start — delayed deliveries, ack carriers, the fault
// callback — is gone once Run has returned and Close has drained.
func TestChaosRunLeavesNoGoroutines(t *testing.T) {
	g := chaosGraph(t, 82)
	before := runtime.NumGoroutine()
	res, err := cluster.Run[float64, float64](context.Background(), g, bcd.PageRank{}, faultyCfg(4, 6, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NodesFailed != 1 {
		t.Fatalf("NodesFailed = %d, want 1", res.Stats.NodesFailed)
	}
	// A joined goroutine is still counted for the instant between its
	// last statement and its exit; give that instant, nothing more.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the run, %d after", before, runtime.NumGoroutine())
		}
	}
}
