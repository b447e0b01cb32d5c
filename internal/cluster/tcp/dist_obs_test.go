// Observability-plane tests for the -listen/-join runtime: fStats
// aggregation over the control lane and the /readyz readiness dance
// around a checkpoint resume (DESIGN.md §13).
package tcp_test

import (
	"context"
	"net"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/checkpoint"
	"graphabcd/internal/cluster/tcp"
	"graphabcd/internal/gen"
	"graphabcd/internal/graph"
	"graphabcd/internal/telemetry"
)

// runDistLoopbackOpts is runDistLoopback with per-joiner transport
// options, for wiring joiner-side registries and health into the run.
func runDistLoopbackOpts(t *testing.T, snapPath string, cfg tcp.DistConfig, joinOpts []tcp.Options) *tcp.DistResult {
	t.Helper()
	ctrl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	type serveOut struct {
		res *tcp.DistResult
		err error
	}
	serveCh := make(chan serveOut, 1)
	go func() {
		res, err := tcp.Serve(ctx, ctrl, snapPath, cfg)
		serveCh <- serveOut{res, err}
	}()
	joinCh := make(chan error, cfg.Nodes-1)
	for i := 1; i < cfg.Nodes; i++ {
		go func(i int) {
			joinCh <- tcp.Join(ctx, ctrl.Addr().String(), joinOpts[i-1])
		}(i)
	}

	out := <-serveCh
	if out.err != nil {
		t.Fatalf("serve: %v", out.err)
	}
	for i := 1; i < cfg.Nodes; i++ {
		if err := <-joinCh; err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	return out.res
}

// TestDistStatsAggregation runs a three-node loopback cluster with the
// aggregation plane on and requires the coordinator's merged snapshot to
// cover every node: per-node progress counters, wire counters, and stage
// histograms, all shipped as deltas over fStats rounds and folded into
// one ClusterStats — without disturbing the run's fixed point.
func TestDistStatsAggregation(t *testing.T) {
	g, snap := distGraphFile(t, 98)
	cfg := distConfig(3, "cc")
	cfg.Telemetry = telemetry.New(telemetry.Options{Histograms: true})
	cfg.Cluster = telemetry.NewClusterStats()
	cfg.StatsEvery = 2 * time.Millisecond

	joinRegs := []*telemetry.Registry{
		telemetry.New(telemetry.Options{Histograms: true}),
		telemetry.New(telemetry.Options{Histograms: true}),
	}
	res := runDistLoopbackOpts(t, snap, cfg, []tcp.Options{
		{Telemetry: joinRegs[0]},
		{Telemetry: joinRegs[1]},
	})

	// The run's correctness is untouched by aggregation rounds.
	want := bcd.RefCC(g)
	for v := range want {
		if res.Uint[v] != want[v] {
			t.Fatalf("cc[%d] = %d, want %d (stats rounds disturbed the run)", v, res.Uint[v], want[v])
		}
	}

	nodes := cfg.Cluster.Nodes()
	if len(nodes) != 3 {
		t.Fatalf("merged snapshot covers %d nodes, want 3", len(nodes))
	}
	for i, n := range nodes {
		if n.Node != i {
			t.Fatalf("nodes[%d].Node = %d, want %d", i, n.Node, i)
		}
		if n.Counters[telemetry.CtrVertexUpdates] == 0 {
			t.Errorf("node %d reported no vertex updates", i)
		}
		if n.Stages[telemetry.StageGather].Count() == 0 {
			t.Errorf("node %d reported no gather observations", i)
		}
		if n.Wire.FramesSent == 0 {
			t.Errorf("node %d reported no frames sent", i)
		}
	}

	// The final stats round runs after quiescence, so the merged counters
	// are complete: every registry's cumulative total must appear in the
	// coordinator's accumulated deltas. The coordinator is always node 0;
	// joiners are assigned ids in connection order, which the test does
	// not control, so their totals are compared as a multiset.
	if got, want := nodes[0].Counters[telemetry.CtrVertexUpdates], cfg.Telemetry.Total(telemetry.CtrVertexUpdates); got != want {
		t.Errorf("node 0 merged vertex updates = %d, registry says %d", got, want)
	}
	merged := []int64{nodes[1].Counters[telemetry.CtrVertexUpdates], nodes[2].Counters[telemetry.CtrVertexUpdates]}
	local := []int64{joinRegs[0].Total(telemetry.CtrVertexUpdates), joinRegs[1].Total(telemetry.CtrVertexUpdates)}
	sort.Slice(merged, func(a, b int) bool { return merged[a] < merged[b] })
	sort.Slice(local, func(a, b int) bool { return local[a] < local[b] })
	if merged[0] != local[0] || merged[1] != local[1] {
		t.Errorf("joiner merged vertex updates %v, registries say %v", merged, local)
	}

	total := cfg.Cluster.Total()
	if total.Counters[telemetry.CtrMessagesSent] == 0 || total.Counters[telemetry.CtrBatchesSent] == 0 {
		t.Error("cluster total shows no cross-node traffic")
	}
	// The plane times its own rounds (at least the final post-quiescence
	// one ran), so its cost is an answerable question.
	if rounds, work, span := cfg.Cluster.RoundCost(); rounds < 1 || work <= 0 || span < work {
		t.Errorf("RoundCost() = %d rounds, work %v, span %v — the plane did not measure itself", rounds, work, span)
	}
	if res.Wire.FramesSent == 0 {
		t.Error("DistResult carries no coordinator wire snapshot")
	}
}

// TestDistRetransmitsLessThanItSends runs a loopback PageRank with the
// default delivery tuning over a loss-free wire. Every retransmission is
// then spurious — a timeout shorter than the loaded round trip — and the
// cluster-wide count must stay below the batches sent. A fixed 2 ms
// retransmission timeout resent 1.3–1.8 batches for every one sent here.
func TestDistRetransmitsLessThanItSends(t *testing.T) {
	g, err := gen.Uniform(1<<13, 1<<17, 0, 101)
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "graph.gabs")
	if err := graph.SaveFormat(snap, g, graph.FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	cfg := tcp.DistConfig{Nodes: 2, Algo: "pr", WorkersPerNode: 1, Epsilon: 1e-9,
		Telemetry: telemetry.New(telemetry.Options{}), Cluster: telemetry.NewClusterStats()}
	res := runDistLoopback(t, snap, cfg)
	total := cfg.Cluster.Total()
	sent, retried := total.Counters[telemetry.CtrBatchesSent], total.Counters[telemetry.CtrBatchesRetried]
	gauges := cfg.Telemetry.Snapshot().Gauges
	t.Logf("batches sent %d, retransmitted %d, coordinator srtt %.2f ms rto %.2f ms, wire %+v",
		sent, retried, gauges["node0_peer1_srtt_ms"], gauges["node0_peer1_rto_ms"], res.Wire)
	if sent == 0 || retried >= sent {
		t.Fatalf("retransmitted %d batches for %d sent over a loss-free loopback", retried, sent)
	}
	if gauges["node0_peer1_srtt_ms"] <= 0 || gauges["node0_peer1_rto_ms"] < 1 {
		t.Fatalf("the coordinator's timer gauges show nothing learned: %v", gauges)
	}
}

// TestDistStatsDisabledByDefault: with no Cluster sink configured, no
// fStats round runs and the result is unchanged — the plane is pay-as-
// you-go.
func TestDistStatsDisabledByDefault(t *testing.T) {
	g, snap := distGraphFile(t, 99)
	res := runDistLoopback(t, snap, distConfig(2, "cc"))
	want := bcd.RefCC(g)
	for v := range want {
		if res.Uint[v] != want[v] {
			t.Fatalf("cc[%d] = %d, want %d", v, res.Uint[v], want[v])
		}
	}
}

// TestDistReadyzFlipsOnResume drives the full readiness dance: a run is
// interrupted after its first committed checkpoint epoch, then resumed
// with Health wired on both nodes. Both nodes must pass through
// not-ready("checkpoint resume") before ready("running") — the /readyz
// contract that keeps scrapers away from a half-restored iterate — and
// end not-ready("stopped").
func TestDistReadyzFlipsOnResume(t *testing.T) {
	if testing.Short() {
		t.Skip("interrupt-and-resume over loopback is a slow dist run; health unit tests cover the endpoint in -short")
	}
	_, snap := distGraphFile(t, 100)
	ckdir := filepath.Join(t.TempDir(), "ckpt")
	cfg := distConfig(2, "pr")
	cfg.Epsilon = 1e-12
	cfg.CheckpointDir = ckdir
	cfg.CheckpointInterval = 2 * time.Millisecond

	// Segment 1: run until one epoch commits, then cancel the cluster.
	ctrl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	serveCh := make(chan error, 1)
	joinCh := make(chan error, 1)
	go func() {
		_, err := tcp.Serve(ctx, ctrl, snap, cfg)
		serveCh <- err
	}()
	go func() {
		joinCh <- tcp.Join(ctx, ctrl.Addr().String(), tcp.Options{})
	}()
	store, err := checkpoint.NewDirStore(ckdir)
	if err != nil {
		t.Fatal(err)
	}
	committed := false
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); {
		if _, err := store.Latest(); err == nil {
			committed = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !committed {
		t.Fatal("no checkpoint epoch committed within a minute")
	}
	cancel()
	<-serveCh
	<-joinCh
	_ = ctrl.Close()

	// Segment 2: resume with Health attached to both nodes.
	coordHealth := telemetry.NewHealth("starting")
	joinHealth := telemetry.NewHealth("starting")
	resumed := cfg
	resumed.Resume = "latest"
	resumed.Health = coordHealth
	if res := runDistLoopbackOpts(t, snap, resumed, []tcp.Options{{Health: joinHealth}}); res.Float == nil {
		t.Fatal("resumed pr run returned no values")
	}

	for name, h := range map[string]*telemetry.Health{"coordinator": coordHealth, "joiner": joinHealth} {
		want := []telemetry.HealthTransition{
			{Ready: false, Reason: "starting"},
			{Ready: false, Reason: "checkpoint resume"},
			{Ready: true, Reason: "running"},
			{Ready: false, Reason: "stopped"},
		}
		got := h.History()
		if len(got) != len(want) {
			t.Fatalf("%s readiness history = %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s readiness[%d] = %v, want %v", name, i, got[i], want[i])
			}
		}
		// The endpoint view of the final state: 503, run stopped.
		rec := httptest.NewRecorder()
		telemetry.ReadyzHandler(h).ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
		if rec.Code != 503 || rec.Body.String() != "not ready: stopped\n" {
			t.Errorf("%s post-run readyz = %d %q", name, rec.Code, rec.Body.String())
		}
	}
}
