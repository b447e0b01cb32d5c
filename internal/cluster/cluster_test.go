package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/gen"
	"graphabcd/internal/graph"
	"graphabcd/internal/telemetry"
)

// delayed is a Transport that delivers every envelope d late, on a timer
// goroutine — latency injected at the seam that owns it. Close waits out
// the deliveries in flight, including the acks they send.
type delayed struct {
	d       time.Duration
	deliver func(int, Envelope)
	wg      sync.WaitGroup
}

func (t *delayed) Bind(_ int, deliver func(int, Envelope)) { t.deliver = deliver }
func (t *delayed) Send(_, to int, e Envelope) {
	t.wg.Add(1)
	time.AfterFunc(t.d, func() {
		defer t.wg.Done()
		t.deliver(to, e)
	})
}
func (t *delayed) Close() { t.wg.Wait() }

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(9, 6, 77))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func baseCfg(nodes int) Config {
	return Config{Nodes: nodes, BlockSize: 32, WorkersPerNode: 2, Epsilon: 1e-12}
}

// degenerateGraph is a seeded 41-vertex graph with everything a block or
// node boundary can trip on: random edges among the first 33 vertices, a
// few self-loops, and 8 isolated vertices at the end.
func degenerateGraph(t *testing.T, seed int64, maxWeight int, symmetric bool) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for i := 0; i < 120; i++ {
		e := graph.Edge{Src: uint32(rng.Intn(33)), Dst: uint32(rng.Intn(33)), Weight: 1}
		if i%17 == 0 {
			e.Dst = e.Src
		}
		if maxWeight > 1 {
			e.Weight = float32(1 + rng.Intn(maxWeight))
		}
		edges = append(edges, e)
		if symmetric {
			edges = append(edges, graph.Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
		}
	}
	g, err := graph.FromEdges(41, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// eachClusterShape runs prog over g on 1 and 3 nodes with block sizes 1,
// 7 and |V| — the last leaves one block, so 3 nodes exceed the block
// count — and hands every converged result to check, once the exact
// quiescence check has confirmed the run's declared quiescence.
func eachClusterShape[V, M any](t *testing.T, g *graph.Graph, prog bcd.Program[V, M], eps float64, check func(name string, vals []V)) {
	t.Helper()
	for _, nodes := range []int{1, 3} {
		for _, blockSize := range []int{1, 7, max(1, g.NumVertices())} {
			name := fmt.Sprintf("%d nodes, block %d", nodes, blockSize)
			cfg := Config{Nodes: nodes, BlockSize: blockSize, WorkersPerNode: 2, Epsilon: eps}
			checked := oracleChecks.Load()
			res, err := Run[V, M](context.Background(), g, prog, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.Stats.Converged {
				t.Fatalf("%s: did not converge", name)
			}
			if n := oracleChecks.Load() - checked; n != 1 {
				t.Fatalf("%s: the exact check confirmed %d declared quiescences, want 1", name, n)
			}
			if nb := max(1, (g.NumVertices()+blockSize-1)/blockSize); res.Stats.Nodes != min(nodes, nb) {
				t.Fatalf("%s: ran on %d nodes over %d blocks", name, res.Stats.Nodes, nb)
			}
			// The default transport loses nothing and delivers on the
			// sender's goroutine, so nothing is ever retransmitted.
			if res.Stats.BatchesRetried != 0 || res.Stats.BatchesDropped != 0 {
				t.Fatalf("%s: loss-free transport retried %d and dropped %d of %d batches",
					name, res.Stats.BatchesRetried, res.Stats.BatchesDropped, res.Stats.BatchesSent)
			}
			check(name, res.Values)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := baseCfg(2).Validate(); err != nil {
		t.Fatal(err)
	}
	// A zero WorkersPerNode is not an error: it resolves to the default.
	if zero := (Config{Nodes: 1}); zero.Validate() != nil || zero.WithDefaults().WorkersPerNode != 2 {
		t.Errorf("WorkersPerNode 0: Validate = %v, resolves to %d, want nil and 2",
			zero.Validate(), zero.WithDefaults().WorkersPerNode)
	}
	bad := []Config{
		{Nodes: 0, WorkersPerNode: 1},
		{Nodes: 1, WorkersPerNode: -1},
		{Nodes: 1, WorkersPerNode: 1, BlockSize: -1},
		{Nodes: 1, WorkersPerNode: 1, Epsilon: -1},
		{Nodes: 1, WorkersPerNode: 1, MaxEpochs: -1},
		{Nodes: 1, WorkersPerNode: 1, BatchSize: -1},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("config %d accepted", i)
		}
		if _, err := Run[float64, float64](context.Background(), testGraph(t), bcd.PageRank{}, cfg); err == nil {
			t.Errorf("config %d: Run accepted invalid config", i)
		}
	}
}

func TestDistributedPageRankMatchesReference(t *testing.T) {
	g := testGraph(t)
	want := bcd.RefPageRank(g, 0.85, 1e-13, 1000)
	for _, nodes := range []int{1, 2, 4, 7} {
		res, err := Run[float64, float64](context.Background(), g, bcd.PageRank{}, baseCfg(nodes))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.Converged {
			t.Fatalf("%d nodes: did not converge", nodes)
		}
		for v := range want {
			if d := math.Abs(res.Values[v] - want[v]); d > 1e-7 {
				t.Fatalf("%d nodes: rank[%d] off by %g", nodes, v, d)
			}
		}
		if nodes == 1 && res.Stats.MessagesSent != 0 {
			t.Fatalf("single node sent %d messages", res.Stats.MessagesSent)
		}
		if nodes > 1 && res.Stats.MessagesSent == 0 {
			t.Fatalf("%d nodes exchanged no messages", nodes)
		}
		if res.Stats.Nodes != nodes {
			t.Fatalf("stats report %d nodes", res.Stats.Nodes)
		}
	}
	empty, err := graph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	single, err := graph.FromEdges(1, []graph.Edge{{Src: 0, Dst: 0, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{degenerateGraph(t, 11, 1, false), empty, single} {
		want := bcd.RefPageRank(g, 0.85, 1e-13, 1000)
		eachClusterShape[float64, float64](t, g, bcd.PageRank{}, 1e-12, func(name string, vals []float64) {
			if len(vals) != len(want) {
				t.Fatalf("%d-vertex graph, %s: %d ranks", g.NumVertices(), name, len(vals))
			}
			for v := range want {
				if d := math.Abs(vals[v] - want[v]); d > 1e-6 {
					t.Fatalf("%d-vertex graph, %s: rank[%d] off by %g", g.NumVertices(), name, v, d)
				}
			}
		})
	}
}

func TestDistributedSSSPExact(t *testing.T) {
	cfgG := gen.DefaultRMAT(9, 6, 78)
	cfgG.MaxWeight = 16
	g, err := gen.RMAT(cfgG)
	if err != nil {
		t.Fatal(err)
	}
	src := uint32(3)
	want := bcd.RefSSSP(g, src)
	cfg := baseCfg(3)
	cfg.Epsilon = 0
	res, err := Run[float64, float64](context.Background(), g, bcd.SSSP{Source: src}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		got := res.Values[v]
		if got != want[v] && !(math.IsInf(got, 1) && math.IsInf(want[v], 1)) {
			t.Fatalf("dist[%d] = %g, want %g", v, got, want[v])
		}
	}
	// Exact on every cluster shape, for each monotone program.
	dg := degenerateGraph(t, 12, 16, false)
	dwant := bcd.RefSSSP(dg, src)
	eachClusterShape[float64, float64](t, dg, bcd.SSSP{Source: src}, 0, func(name string, vals []float64) {
		for v := range dwant {
			if vals[v] != dwant[v] && !(math.IsInf(vals[v], 1) && math.IsInf(dwant[v], 1)) {
				t.Fatalf("degenerate graph, %s: dist[%d] = %g, want %g", name, v, vals[v], dwant[v])
			}
		}
	})
	levels := bcd.RefBFS(dg, src)
	eachClusterShape[uint64, uint64](t, dg, bcd.BFS{Source: src}, 0, func(name string, vals []uint64) {
		if !slices.Equal(vals, levels) {
			t.Fatalf("degenerate graph, bfs, %s: levels %v, want %v", name, vals, levels)
		}
	})
	sg := degenerateGraph(t, 14, 1, true)
	labels := bcd.RefCC(sg)
	eachClusterShape[uint64, uint64](t, sg, bcd.CC{}, 0, func(name string, vals []uint64) {
		if !slices.Equal(vals, labels) {
			t.Fatalf("degenerate graph, cc, %s: labels %v, want %v", name, vals, labels)
		}
	})
}

// Injected network latency must not affect the fixpoint — the bounded
// delay of asynchronous BCD in action across nodes.
func TestDistributedToleratesNetworkDelay(t *testing.T) {
	g := testGraph(t)
	want := bcd.RefPageRank(g, 0.85, 1e-13, 1000)
	cfg := baseCfg(4)
	cfg.Transport = &delayed{d: 2 * time.Millisecond}
	cfg.BatchSize = 16
	checked := oracleChecks.Load()
	res, err := Run[float64, float64](context.Background(), g, bcd.PageRank{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("did not converge under network delay")
	}
	if n := oracleChecks.Load() - checked; n != 1 {
		t.Fatalf("the exact check confirmed %d declared quiescences, want 1", n)
	}
	for v := range want {
		if d := math.Abs(res.Values[v] - want[v]); d > 1e-7 {
			t.Fatalf("rank[%d] off by %g under delay", v, d)
		}
	}
}

func TestDistributedBudgetStops(t *testing.T) {
	g := testGraph(t)
	cfg := baseCfg(2)
	cfg.Epsilon = 0 // never naturally quiescent within the budget
	cfg.MaxEpochs = 2
	res, err := Run[float64, float64](context.Background(), g, bcd.PageRank{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Converged {
		t.Fatal("budget-stopped run must not report convergence")
	}
	if res.Stats.Epochs > 4 {
		t.Fatalf("epochs %.1f far beyond budget 2", res.Stats.Epochs)
	}
	// The engine's contract (core.Config.MaxEpochs): every worker finishes
	// at most the one block it holds past the budget.
	limit := int64(cfg.MaxEpochs)*int64(g.NumVertices()) + int64(cfg.Nodes*cfg.WorkersPerNode*cfg.BlockSize)
	if res.Stats.VertexUpdates > limit {
		t.Fatalf("%d vertex updates past the budget's bound %d", res.Stats.VertexUpdates, limit)
	}
}

// TestDistributedLiveTelemetry checks that node workers report their
// picks like the engine's do: with a live registry, one StagePick
// observation and one issued and one finished task per processed block.
func TestDistributedLiveTelemetry(t *testing.T) {
	g := testGraph(t)
	cfg := baseCfg(2)
	cfg.Telemetry = telemetry.New(telemetry.Options{Histograms: true})
	res, err := Run[float64, float64](context.Background(), g, bcd.PageRank{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	blocks := res.Stats.BlockUpdates
	if blocks == 0 {
		t.Fatalf("run did no work: %+v", res.Stats)
	}
	if h := cfg.Telemetry.StageHistogram(telemetry.StagePick); h.Count != blocks {
		t.Errorf("pick count = %d, want %d", h.Count, blocks)
	}
	totals := cfg.Telemetry.CounterTotals()
	if totals[telemetry.CtrTasksIssued] != blocks || totals[telemetry.CtrTasksFinished] != blocks {
		t.Errorf("tasks issued %d, finished %d, want %d each",
			totals[telemetry.CtrTasksIssued], totals[telemetry.CtrTasksFinished], blocks)
	}
}

func TestDistributedMoreNodesThanBlocks(t *testing.T) {
	g, err := gen.Uniform(40, 200, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Nodes: 8, BlockSize: 16, WorkersPerNode: 1, Epsilon: 1e-12}
	// 40 vertices / 16 = 3 blocks across 8 nodes: most nodes own nothing.
	res, err := Run[float64, float64](context.Background(), g, bcd.PageRank{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("did not converge with idle nodes")
	}
	if res.Stats.Nodes != 3 {
		t.Fatalf("8 requested nodes over 3 blocks must clamp to 3, got %d", res.Stats.Nodes)
	}
	want := bcd.RefPageRank(g, 0.85, 1e-13, 1000)
	for v := range want {
		if d := math.Abs(res.Values[v] - want[v]); d > 1e-7 {
			t.Fatalf("rank[%d] off by %g", v, d)
		}
	}
}

func TestDistributedRejectsOpBased(t *testing.T) {
	if _, err := Run[float64, float64](context.Background(), testGraph(t), bcd.PageRankDelta{}, baseCfg(2)); err == nil {
		t.Fatal("operation-based programs must be rejected")
	}
}

func TestDistributedMessageAccounting(t *testing.T) {
	g := testGraph(t)
	cfg := baseCfg(4)
	cfg.BatchSize = 8
	res, err := Run[float64, float64](context.Background(), g, bcd.PageRank{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BatchesSent == 0 || res.Stats.MessagesSent < res.Stats.BatchesSent {
		t.Fatalf("accounting wrong: %d messages in %d batches",
			res.Stats.MessagesSent, res.Stats.BatchesSent)
	}
	if res.Stats.LocalWrites+res.Stats.MessagesSent != res.Stats.ScatterWrites {
		t.Fatal("local+remote writes must equal total scatter writes")
	}
}

// panicky injects a vertex-program panic so tests can prove worker
// panics surface as an error from Run instead of crashing the process.
type panicky struct{ bcd.PageRank }

func (panicky) Apply(v uint32, old float64, acc *float64, nEdges int64, g *graph.Graph) float64 {
	if v == 7 {
		panic("injected vertex fault")
	}
	return bcd.PageRank{}.Apply(v, old, acc, nEdges, g)
}

func TestDistributedWorkerPanicReturnsError(t *testing.T) {
	g := testGraph(t)
	res, err := Run[float64, float64](context.Background(), g, panicky{}, baseCfg(3))
	if err == nil {
		t.Fatal("worker panic must surface as an error from Run")
	}
	if res != nil {
		t.Fatal("failed run must not return a result")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("error should identify the panic, got: %v", err)
	}
}

func TestDistributedCancellation(t *testing.T) {
	g := testGraph(t)

	// A context cancelled before the run starts must still yield a
	// graceful partial result, not an error.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := baseCfg(2)
	res, err := Run[float64, float64](pre, g, bcd.PageRank{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Converged {
		t.Fatal("cancelled run must not report convergence")
	}
	if len(res.Values) != g.NumVertices() {
		t.Fatal("cancelled run must still return the partial values")
	}

	// Mid-run cancellation: network delay keeps the run alive well past
	// the cancellation point; Run must come back promptly regardless.
	ctx, cancel2 := context.WithCancel(context.Background())
	cfg = baseCfg(4)
	cfg.Epsilon = 0
	cfg.Transport = &delayed{d: time.Millisecond}
	cfg.BatchSize = 4
	go func() {
		time.Sleep(25 * time.Millisecond)
		cancel2()
	}()
	start := time.Now()
	res, err = Run[float64, float64](ctx, g, bcd.PageRank{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Converged {
		t.Fatal("cancelled run must not report convergence")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to unwind", elapsed)
	}
}

// BatchSize 1 sends one batch per remote image — the worst-case message
// pattern must still be exact. An image stands for every slot its source
// feeds on the receiver, so batches can only undercount slot updates.
func TestDistributedUnbatchedMessages(t *testing.T) {
	g := testGraph(t)
	want := bcd.RefPageRank(g, 0.85, 1e-13, 1000)
	cfg := baseCfg(3)
	cfg.BatchSize = 1
	res, err := Run[float64, float64](context.Background(), g, bcd.PageRank{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("did not converge")
	}
	if res.Stats.BatchesSent == 0 || res.Stats.BatchesSent > res.Stats.MessagesSent {
		t.Fatalf("batch size 1: %d batches for %d remote slot updates",
			res.Stats.BatchesSent, res.Stats.MessagesSent)
	}
	for v := range want {
		if d := math.Abs(res.Values[v] - want[v]); d > 1e-7 {
			t.Fatalf("rank[%d] off by %g", v, d)
		}
	}
}

// blackhole is a Transport that loses every envelope.
type blackhole struct{}

func (blackhole) Bind(int, func(int, Envelope)) {}
func (blackhole) Send(int, int, Envelope)       {}
func (blackhole) Close()                        {}

// Every goroutine Run starts — workers, the retry loop, the watchdog, a
// transport's in-flight deliveries — is joined before Run returns, however
// the run ends.
func TestRunLeavesNoGoroutines(t *testing.T) {
	g := testGraph(t)
	endless := func(nodes int) Config {
		cfg := baseCfg(nodes)
		cfg.Epsilon = 0
		return cfg
	}
	cases := []struct {
		name    string
		cfg     func() (context.Context, Config)
		wantErr bool
	}{
		{name: "converged", cfg: func() (context.Context, Config) { return context.Background(), baseCfg(3) }},
		{name: "cancelled", cfg: func() (context.Context, Config) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(10*time.Millisecond, cancel)
			cfg := endless(4)
			cfg.Transport = &delayed{d: time.Millisecond}
			return ctx, cfg
		}},
		{name: "budget-stopped", cfg: func() (context.Context, Config) {
			cfg := endless(2)
			cfg.MaxEpochs = 2
			return context.Background(), cfg
		}},
		{name: "failed past RetryDeadline", wantErr: true, cfg: func() (context.Context, Config) {
			cfg := endless(2)
			cfg.Transport = blackhole{}
			cfg.RetryDeadline = 10 * time.Millisecond
			return context.Background(), cfg
		}},
		{name: "node failed mid-run", cfg: func() (context.Context, Config) {
			cfg := baseCfg(3)
			cfg.OnStart = func(c Control) {
				if err := c.FailNode(1); err != nil {
					t.Errorf("FailNode: %v", err)
				}
			}
			return context.Background(), cfg
		}},
	}
	for _, tc := range cases {
		before := runtime.NumGoroutine()
		ctx, cfg := tc.cfg()
		if _, err := Run[float64, float64](ctx, g, bcd.PageRank{}, cfg); (err != nil) != tc.wantErr {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
		// A joined goroutine is still counted for the instant between its
		// last statement and its exit; give that instant, nothing more.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines before the run, %d after", tc.name, before, runtime.NumGoroutine())
			}
		}
	}
}
