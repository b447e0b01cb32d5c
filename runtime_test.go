package graphabcd

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// TestRuntimeMatchesGenericRun pins the API's contract: a Runtime JobSpec
// for a built-in algorithm (by alias) and the typed Run entry point for
// custom programs produce identical results, because both drive the same
// engine over the same program.
func TestRuntimeMatchesGenericRun(t *testing.T) {
	g := ring(t, 64)
	cfg := DefaultConfig(8)
	typed, err := Run[float64, float64](g, PageRank{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := runSpec(t, NewJobSpec("pr", g, WithConfig(cfg)))
	if res.Algorithm != "pagerank" {
		t.Fatalf("alias not canonicalized: %q", res.Algorithm)
	}
	if len(res.Float) != len(typed.Values) {
		t.Fatalf("value lengths differ: %d vs %d", len(res.Float), len(typed.Values))
	}
	for v := range res.Float {
		if math.Abs(res.Float[v]-typed.Values[v]) > 1e-9 {
			t.Fatalf("rank[%d]: runtime %g vs typed %g", v, res.Float[v], typed.Values[v])
		}
	}
}

func TestRuntimeUnknownAlgorithm(t *testing.T) {
	rt := NewRuntime()
	_, err := rt.Run(context.Background(), NewJobSpec("dijkstra", ring(t, 8)))
	if !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("want ErrUnknownAlgorithm, got %v", err)
	}
	if !strings.Contains(err.Error(), "pagerank") {
		t.Fatalf("error should list known algorithms: %v", err)
	}
}

// TestRuntimeValidatesDistributedConfig is the regression test for the
// validate-at-the-boundary fix: an invalid cluster configuration must be
// rejected synchronously by Runtime.Run — before any sharding or
// goroutine starts — not deep inside the engine.
func TestRuntimeValidatesDistributedConfig(t *testing.T) {
	rt := NewRuntime()
	bad := ClusterConfig{Nodes: 2, WorkersPerNode: -1, BlockSize: 4}
	_, err := rt.Run(context.Background(), NewJobSpec("pagerank", ring(t, 16), WithClusterConfig(bad)))
	if err == nil {
		t.Fatal("invalid distributed config accepted")
	}
	if !strings.Contains(err.Error(), "WorkersPerNode") {
		t.Fatalf("want the cluster validation message, got: %v", err)
	}
	// Distributed dispatch is registry-gated too: labelprop has no
	// cluster runner and must be refused up front.
	_, err = rt.Run(context.Background(), NewJobSpec("labelprop", ring(t, 16),
		WithClusterConfig(ClusterConfig{Nodes: 2, WorkersPerNode: 1})))
	if err == nil || !strings.Contains(err.Error(), "distributed") {
		t.Fatalf("want distributed-unsupported error, got: %v", err)
	}
}

func TestRuntimeValidatesSpecParams(t *testing.T) {
	rt := NewRuntime()
	g := ring(t, 16)
	if _, err := rt.Run(context.Background(), NewJobSpec("sssp", g)); err == nil {
		t.Fatal("sssp without source accepted")
	}
	if _, err := rt.Run(context.Background(), NewJobSpec("sssp", g, WithSource(99))); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := rt.Run(context.Background(), NewJobSpec("ppr", g)); err == nil {
		t.Fatal("ppr without seeds accepted")
	}
	if _, err := rt.Run(context.Background(), NewJobSpec("pagerank", nil)); err == nil {
		t.Fatal("nil graph accepted")
	}
	bad := DefaultConfig(8)
	bad.NumPEs = -1
	if _, err := rt.Run(context.Background(), NewJobSpec("pagerank", g, WithConfig(bad))); err == nil {
		t.Fatal("invalid core config accepted")
	}
}

// TestRuntimeDistributed runs real in-process cluster jobs through the
// registry and checks the distributed stats surface. The BlockSize 0 row
// is the regression case: the Runtime boundary must default it like
// Config.BlockSize, or the cluster cuts one |V|-sized block, clamps
// itself to a single node and never sends a batch.
func TestRuntimeDistributed(t *testing.T) {
	g := ring(t, 128)
	for _, blockSize := range []int{16, 0} {
		res := runSpec(t, NewJobSpec("cc", g,
			WithClusterConfig(ClusterConfig{Nodes: 2, WorkersPerNode: 2, BlockSize: blockSize})))
		if res.Cluster == nil || res.Cluster.Nodes != 2 || res.Cluster.BatchesSent == 0 {
			t.Fatalf("BlockSize %d: cluster stats missing or wrong: %+v", blockSize, res.Cluster)
		}
		for v, l := range res.Uint {
			if l != 0 {
				t.Fatalf("BlockSize %d: label[%d] = %d, want 0", blockSize, v, l)
			}
		}
	}
}

func TestRuntimeEventsTerminal(t *testing.T) {
	g := ring(t, 64)
	rt := NewRuntime()
	h, err := rt.Run(context.Background(), NewJobSpec("pagerank", g))
	if err != nil {
		t.Fatal(err)
	}
	sawDone := false
	for ev := range h.Events() {
		if ev.Job != h.ID() {
			t.Fatalf("event for job %q on handle %q", ev.Job, h.ID())
		}
		if ev.Type == EventDone {
			sawDone = true
		}
	}
	if !sawDone {
		t.Fatal("event stream closed without a terminal EventDone")
	}
	if res, err := h.Result(); err != nil || res == nil || !res.Stats.Converged {
		t.Fatalf("result after done: %v %v", res, err)
	}
}

func TestRuntimeCancel(t *testing.T) {
	g := ring(t, 256)
	cfg := DefaultConfig(8)
	stall := make(chan struct{})
	cfg.StallHook = func(string) {
		select {
		case <-stall:
		case <-time.After(2 * time.Millisecond):
		}
	}
	rt := NewRuntime()
	h, err := rt.Run(context.Background(), NewJobSpec("pagerank", g, WithConfig(cfg)))
	if err != nil {
		t.Fatal(err)
	}
	h.Cancel()
	res, err := h.Wait(context.Background())
	close(stall)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Converged {
		t.Log("run converged before the cancel landed (tiny graph); still fine")
	}
}

func TestPPRConcentratesOnSeeds(t *testing.T) {
	// Star-ish graph: ring plus extra edges into the seed so the seed's
	// neighborhood outranks the far side.
	g := ring(t, 64)
	res := runSpec(t, NewJobSpec("ppr", g, WithSeeds(3), WithConfig(DefaultConfig(8))))
	sum := 0.0
	for _, x := range res.Float {
		sum += x
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ppr mass sums to %g, want 1", sum)
	}
	if res.Float[3] <= res.Float[35] {
		t.Fatalf("seed rank %g not above far vertex %g", res.Float[3], res.Float[35])
	}
	// The fixpoint satisfies the personalized equation.
	prog, err := NewPPR(0, []uint32{3})
	if err != nil {
		t.Fatal(err)
	}
	if r := prog.L1Residual(g, res.Float); r > 1e-6 {
		t.Fatalf("ppr residual %g", r)
	}
}

func TestAlgorithmListing(t *testing.T) {
	specs := Algorithms()
	if len(specs) < 8 {
		t.Fatalf("registry lists %d algorithms", len(specs))
	}
	for i := 1; i < len(specs); i++ {
		if specs[i-1].Name >= specs[i].Name {
			t.Fatalf("listing not sorted: %q before %q", specs[i-1].Name, specs[i].Name)
		}
	}
	pr, err := LookupAlgorithm(" PageRank ")
	if err != nil || pr.Name != "pagerank" {
		t.Fatalf("case/space-insensitive lookup failed: %v %v", pr, err)
	}
}
