package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/checkpoint"
	"graphabcd/internal/graph"
	"graphabcd/internal/sched"
	"graphabcd/internal/telemetry"
)

// partialCheckpoint runs prog under a tight epoch budget — an interrupted
// run — then captures and commits one checkpoint of the mid-convergence
// state. It returns the run id and the partial run's vertex-update count,
// and fails the test if the budget turned out large enough to converge
// (the checkpoint must be genuinely mid-run).
func partialCheckpoint[V, M any](t *testing.T, g *graph.Graph, prog bcd.Program[V, M], cfg Config, dir string) (string, int64) {
	t.Helper()
	cfg.Checkpoint = Checkpoint{Dir: dir}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(g, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := newCheckpointer(e, cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	converged := e.runBlocked()
	if errp := e.failure.Load(); errp != nil {
		t.Fatal(*errp)
	}
	if converged {
		t.Fatalf("partial run converged within MaxEpochs=%g; tighten the budget so the checkpoint is mid-run", cfg.MaxEpochs)
	}
	if err := ck.capture(); err != nil {
		t.Fatal(err)
	}
	return ck.runID, e.vertexUpdates()
}

func TestResumeEquivalencePageRank(t *testing.T) {
	g := testGraph(t)
	want := bcd.RefPageRank(g, 0.85, 1e-13, 1000)
	dir := t.TempDir()
	cfg := Config{BlockSize: 64, Mode: Async, Policy: sched.Cyclic, NumPEs: 4, NumScatter: 2,
		Epsilon: 1e-12, MaxEpochs: 3}
	runID, partialUpdates := partialCheckpoint(t, g, bcd.PageRank{}, cfg, dir)

	cfg.MaxEpochs = 0
	cfg.Checkpoint = Checkpoint{Dir: dir, Resume: runID}
	res, err := Run[float64, float64](g, bcd.PageRank{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("resumed run did not converge")
	}
	if d := maxAbsDiff(res.Values, want); d > 1e-7 {
		t.Fatalf("resumed fixed point differs from reference by %g", d)
	}
	if res.Stats.VertexUpdates <= partialUpdates {
		t.Fatalf("resumed stats did not continue: %d vertex updates <= partial %d",
			res.Stats.VertexUpdates, partialUpdates)
	}
}

func TestResumeEquivalenceSSSP(t *testing.T) {
	g := weightedGraph(t)
	src := uint32(3)
	want := bcd.RefSSSP(g, src)
	dir := t.TempDir()
	cfg := Config{BlockSize: 32, Mode: Async, Policy: sched.Priority, NumPEs: 2, NumScatter: 1,
		MaxEpochs: 1}
	runID, _ := partialCheckpoint(t, g, bcd.SSSP{Source: src}, cfg, dir)

	cfg.MaxEpochs = 0
	cfg.Checkpoint = Checkpoint{Dir: dir, Resume: runID}
	res, err := Run[float64, float64](g, bcd.SSSP{Source: src}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("resumed run did not converge")
	}
	for v := range want {
		if res.Values[v] != want[v] && !(math.IsInf(res.Values[v], 1) && math.IsInf(want[v], 1)) {
			t.Fatalf("dist[%d] = %g, want %g", v, res.Values[v], want[v])
		}
	}
}

func TestResumeEquivalenceCC(t *testing.T) {
	base := testGraph(t)
	var edges []graph.Edge
	for _, e := range base.Edges() {
		edges = append(edges,
			graph.Edge{Src: e.Src, Dst: e.Dst, Weight: 1},
			graph.Edge{Src: e.Dst, Dst: e.Src, Weight: 1})
	}
	g, err := graph.FromEdges(base.NumVertices()+8, edges)
	if err != nil {
		t.Fatal(err)
	}
	want := bcd.RefCC(g)
	dir := t.TempDir()
	cfg := Config{BlockSize: 32, Mode: Async, Policy: sched.Cyclic, NumPEs: 2, NumScatter: 1,
		MaxEpochs: 1}
	runID, _ := partialCheckpoint(t, g, bcd.CC{}, cfg, dir)

	cfg.MaxEpochs = 0
	cfg.Checkpoint = Checkpoint{Dir: dir, Resume: runID}
	res, err := Run[uint64, uint64](g, bcd.CC{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if res.Values[v] != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, res.Values[v], want[v])
		}
	}
}

// TestKillAndResumePageRank exercises the full public path: a run with
// periodic checkpointing is cancelled mid-flight (the single-process
// stand-in for SIGKILL — its partial result is discarded), and a fresh
// process resumes from the last committed epoch and must still reach the
// reference fixed point.
func TestKillAndResumePageRank(t *testing.T) {
	g := testGraph(t)
	want := bcd.RefPageRank(g, 0.85, 1e-13, 1000)
	dir := t.TempDir()
	store, err := checkpoint.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { // "kill" the run as soon as one checkpoint commits
		for ctx.Err() == nil {
			if _, err := store.Latest(); err == nil {
				cancel()
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	cfg := Config{BlockSize: 64, Mode: Async, Policy: sched.Cyclic, NumPEs: 2, NumScatter: 1,
		Epsilon: 1e-12, Watchdog: -1,
		// Slow the first run so the 1ms checkpoint interval fires well
		// before convergence; the resumed run drops the brake.
		StallHook:  func(string) { time.Sleep(50 * time.Microsecond) },
		Checkpoint: Checkpoint{Dir: dir, Interval: time.Millisecond, RunID: "kill-test"},
	}
	if _, err := RunContext[float64, float64](ctx, g, bcd.PageRank{}, cfg); err != nil {
		t.Fatal(err)
	}
	m, err := store.Latest()
	if err != nil {
		t.Fatalf("no committed checkpoint after the killed run: %v", err)
	}
	if m.RunID != "kill-test" || m.Epoch == 0 {
		t.Fatalf("unexpected manifest %+v", m)
	}

	cfg.StallHook = nil
	cfg.Checkpoint.Resume = "latest"
	res, err := Run[float64, float64](g, bcd.PageRank{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("resumed run did not converge")
	}
	if d := maxAbsDiff(res.Values, want); d > 1e-7 {
		t.Fatalf("resumed fixed point differs from reference by %g", d)
	}
}

func TestResumeRefusesTornAndMismatched(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()
	cfg := Config{BlockSize: 64, Mode: Async, Policy: sched.Cyclic, NumPEs: 2, NumScatter: 1,
		Epsilon: 1e-12, MaxEpochs: 3}
	runID, _ := partialCheckpoint(t, g, bcd.PageRank{}, cfg, dir)

	resume := func(run string, mut func(c *Config)) error {
		c := cfg
		c.MaxEpochs = 0
		c.Checkpoint = Checkpoint{Dir: dir, Resume: run}
		if mut != nil {
			mut(&c)
		}
		_, err := Run[float64, float64](g, bcd.PageRank{}, c)
		return err
	}

	// Wrong program: the manifest identity triple must not match.
	ccfg := cfg
	ccfg.MaxEpochs = 0
	ccfg.Checkpoint = Checkpoint{Dir: dir, Resume: runID}
	if _, err := Run[uint64, uint64](g, bcd.CC{}, ccfg); err == nil ||
		!strings.Contains(err.Error(), "program") {
		t.Fatalf("resume with wrong program: err = %v", err)
	}
	// Wrong block size: a different config hash.
	if err := resume(runID, func(c *Config) { c.BlockSize = 32 }); err == nil ||
		!strings.Contains(err.Error(), "config hash") {
		t.Fatalf("resume with wrong block size: err = %v", err)
	}
	// Unknown run id.
	if err := resume("no-such-run", nil); err == nil {
		t.Fatal("resume of unknown run id succeeded")
	}

	// Torn state file: truncate it and the resume must refuse, even though
	// the manifest still commits the epoch.
	sf, err := filepath.Glob(filepath.Join(dir, runID, "ep*-n0000.gabc"))
	if err != nil || len(sf) != 1 {
		t.Fatalf("state files: %v %v", sf, err)
	}
	info, err := os.Stat(sf[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(sf[0], info.Size()-7); err != nil {
		t.Fatal(err)
	}
	if err := resume(runID, nil); err == nil {
		t.Fatal("resume from a torn state file succeeded")
	}
}

func TestCheckpointRefusesOpBasedProgram(t *testing.T) {
	g := testGraph(t)
	cfg := Config{BlockSize: 64, Mode: Async, Policy: sched.Cyclic, NumPEs: 2, NumScatter: 1,
		Epsilon: 1e-12, Checkpoint: Checkpoint{Dir: t.TempDir()}}
	_, err := Run[float64, float64](g, bcd.PageRankDelta{}, cfg)
	if err == nil || !strings.Contains(err.Error(), "operation-based") {
		t.Fatalf("op-based checkpoint: err = %v", err)
	}
}

// TestWatchdogIgnoresCheckpointWindows is the regression test for the
// stall-accounting satellite: sampling windows that overlap a checkpoint
// capture must not count toward Stats.StallWindows.
func TestWatchdogIgnoresCheckpointWindows(t *testing.T) {
	g := testGraph(t)
	cfg := Config{BlockSize: 64, NumPEs: 1, NumScatter: 1, Watchdog: time.Millisecond}
	e, err := newEngine(g, bcd.PageRank{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() { defer close(done); e.watchdog(stop) }()
		time.Sleep(25 * time.Millisecond)
		close(stop)
		<-done
	}
	// A capture spanning every window: zero progress, zero stalls counted.
	e.ckptGen.Store(1)
	run()
	if n := e.tel.Total(telemetry.CtrStallWindows); n != 0 {
		t.Fatalf("windows during a capture counted as %d stalls", n)
	}
	// No capture, no progress: the stalls must be counted again.
	e.ckptGen.Store(2)
	run()
	if n := e.tel.Total(telemetry.CtrStallWindows); n == 0 {
		t.Fatal("genuine stall windows were not counted")
	}
}

func TestReplayDeterminism(t *testing.T) {
	g := testGraph(t)
	want := bcd.RefPageRank(g, 0.85, 1e-13, 1000)
	var rec bytes.Buffer
	cfg := Config{BlockSize: 64, Mode: Async, Policy: sched.Cyclic, NumPEs: 4, NumScatter: 2,
		Epsilon: 1e-12, RecordSchedule: &rec}
	res := runPR(t, g, cfg)
	if !res.Stats.Converged {
		t.Fatal("recording run did not converge")
	}
	nb := (g.NumVertices() + cfg.BlockSize - 1) / cfg.BlockSize
	ids, err := checkpoint.ReadSchedule(bytes.NewReader(rec.Bytes()), nb)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(ids)) != res.Stats.BlockUpdates {
		t.Fatalf("recorded %d ids, run processed %d blocks", len(ids), res.Stats.BlockUpdates)
	}

	cfg.RecordSchedule = nil
	replay := func() *ReplayResult[float64] {
		r, err := ReplaySchedule[float64, float64](context.Background(), g, bcd.PageRank{}, cfg, ids)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := replay(), replay()
	if len(r1.Residuals) == 0 {
		t.Fatal("replay recorded no per-epoch residuals")
	}
	if len(r1.Residuals) != len(r2.Residuals) {
		t.Fatalf("residual traces differ in length: %d vs %d", len(r1.Residuals), len(r2.Residuals))
	}
	for i := range r1.Residuals {
		if math.Float64bits(r1.Residuals[i]) != math.Float64bits(r2.Residuals[i]) {
			t.Fatalf("residual[%d] not bit-identical: %g vs %g", i, r1.Residuals[i], r2.Residuals[i])
		}
	}
	for v := range r1.Values {
		if math.Float64bits(r1.Values[v]) != math.Float64bits(r2.Values[v]) {
			t.Fatalf("value[%d] not bit-identical across replays", v)
		}
	}
	// The replayed schedule covers the full recorded run, so it lands at
	// the same fixed point (modulo the interleaving the recording had).
	if d := maxAbsDiff(r1.Values, want); d > 1e-7 {
		t.Fatalf("replayed fixed point differs from reference by %g", d)
	}
}

// TestReplayMatchesParentCommitTrace is the cross-commit golden for the
// move onto the shared block kernel: testdata/parent_2bd56f4.gabr is a
// priority-policy PageRank schedule recorded by the 2bd56f4 engine on
// testGraph, and the .trace beside it is what that engine's replay printed
// — every per-epoch residual with %.17g plus an FNV-1a hash of the final
// value bits, once for the state-based and once for the operation-based
// program. A replay that reorders one floating-point operation in
// gather-apply, scatter or the per-block mass sum prints a different line.
func TestReplayMatchesParentCommitTrace(t *testing.T) {
	g := testGraph(t)
	raw, err := os.ReadFile(filepath.Join("testdata", "parent_2bd56f4.gabr"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{BlockSize: 64, Policy: sched.Priority, NumPEs: 4, NumScatter: 2, Epsilon: 1e-12}
	ids, err := checkpoint.ReadSchedule(bytes.NewReader(raw), (g.NumVertices()+cfg.BlockSize-1)/cfg.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, c := range []struct {
		name string
		prog bcd.Program[float64, float64]
	}{{"pagerank", bcd.PageRank{}}, {"pagerank-delta", bcd.PageRankDelta{}}} {
		r, err := ReplaySchedule[float64, float64](context.Background(), g, c.prog, cfg, ids)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range r.Residuals {
			fmt.Fprintf(&got, "%s %.17g\n", c.name, x)
		}
		h := fnv.New64a()
		for _, v := range r.Values {
			_, _ = h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
		fmt.Fprintf(&got, "%s-values %016x\n", c.name, h.Sum64())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "parent_2bd56f4.trace"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(gotLines), len(wantLines)); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("trace line %d: got %q, the parent commit printed %q", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("trace has %d lines, the parent commit printed %d", len(gotLines), len(wantLines))
}
