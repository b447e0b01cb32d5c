package cluster_test

import (
	"context"
	"math"
	"testing"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/chaos"
	"graphabcd/internal/cluster"
	"graphabcd/internal/gen"
)

// TestChaosQuiescenceMatchesExactCheck runs internal/chaos's fault mix —
// 20% drop, 10% duplication, reordering jitter, one node killed mid-run —
// in this package's test binary, where every declared quiescence must
// also pass the exact shared-memory check (oracle_test.go). The runs must
// still reach the reference fixed points.
func TestChaosQuiescenceMatchesExactCheck(t *testing.T) {
	cfgG := gen.DefaultRMAT(9, 6, 83)
	cfgG.MaxWeight = 16
	g, err := gen.RMAT(cfgG)
	if err != nil {
		t.Fatal(err)
	}
	faulty := func(seed uint64, kill int) cluster.Config {
		ctl := make(chan cluster.Control, 1)
		return cluster.Config{
			Nodes: 4, BlockSize: 32, WorkersPerNode: 2, BatchSize: 8,
			Transport: chaos.New(chaos.Config{
				Seed: seed, DropRate: 0.20, DupRate: 0.10, MaxDelay: 300 * time.Microsecond,
				AfterBatches: 20,
				// An error means the kill lost a race with the run's end;
				// the NodesFailed check below catches a kill that never ran.
				OnFault: func() { _ = (<-ctl).FailNode(kill) },
			}),
			OnStart: func(c cluster.Control) { ctl <- c },
		}
	}
	check := func(name string, converged bool, failed int64, checked int64) {
		t.Helper()
		if !converged {
			t.Fatalf("%s: did not converge under chaos", name)
		}
		if failed != 1 {
			t.Fatalf("%s: NodesFailed = %d, want 1", name, failed)
		}
		if n := cluster.OracleChecks() - checked; n != 1 {
			t.Fatalf("%s: the exact check confirmed %d declared quiescences, want 1", name, n)
		}
	}

	checked := cluster.OracleChecks()
	cfg := faulty(1, 2)
	cfg.Epsilon = 1e-12
	pr, err := cluster.Run[float64, float64](context.Background(), g, bcd.PageRank{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("pagerank", pr.Stats.Converged, pr.Stats.NodesFailed, checked)
	for v, want := range bcd.RefPageRank(g, 0.85, 1e-13, 1000) {
		if d := math.Abs(pr.Values[v] - want); d > 1e-7 {
			t.Fatalf("pagerank: rank[%d] off by %g under chaos", v, d)
		}
	}

	checked = cluster.OracleChecks()
	sssp, err := cluster.Run[float64, float64](context.Background(), g, bcd.SSSP{Source: 3}, faulty(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	check("sssp", sssp.Stats.Converged, sssp.Stats.NodesFailed, checked)
	for v, want := range bcd.RefSSSP(g, 3) {
		if got := sssp.Values[v]; got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
			t.Fatalf("sssp: dist[%d] = %g, want %g under chaos", v, got, want)
		}
	}

	checked = cluster.OracleChecks()
	cc, err := cluster.Run[uint64, uint64](context.Background(), g, bcd.CC{}, faulty(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	check("cc", cc.Stats.Converged, cc.Stats.NodesFailed, checked)
	for v, want := range bcd.RefCC(g) {
		if cc.Values[v] != want {
			t.Fatalf("cc: label[%d] = %d, want %d under chaos", v, cc.Values[v], want)
		}
	}
}
