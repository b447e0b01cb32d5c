// Distributed checkpoint/resume: a cluster interrupted mid-run must
// restart from its last committed epoch and land on the same fixed
// point an uninterrupted run reaches, and a manifest that does not
// match the restarting cluster must be refused before any joiner is
// assigned.
package tcp_test

import (
	"bufio"
	"context"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/checkpoint"
	"graphabcd/internal/cluster/tcp"
	"graphabcd/internal/graph"
)

// TestDistCheckpointResumePageRank interrupts a two-node PageRank run
// as soon as its first checkpoint epoch commits, then resumes a fresh
// cluster from that epoch and requires convergence to the reference
// ranks — the distributed edition of the single-process kill-and-resume
// equivalence test.
func TestDistCheckpointResumePageRank(t *testing.T) {
	if testing.Short() {
		t.Skip("PageRank over loopback is the slow dist run; the refusal test covers the plan layer in -short")
	}
	g, snap := distGraphFile(t, 97)
	ckdir := filepath.Join(t.TempDir(), "ckpt")
	cfg := distConfig(2, "pr")
	cfg.Epsilon = 1e-12
	cfg.CheckpointDir = ckdir
	cfg.CheckpointInterval = 2 * time.Millisecond

	// Segment 1: run until one checkpoint commits, then cancel the whole
	// cluster. The cancellation may land mid-checkpoint-round, leaving a
	// newer torn epoch alongside the committed one — resume must land on
	// the committed manifest regardless.
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
	var committed *checkpoint.Manifest
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); {
		if m, err := store.Latest(); err == nil {
			committed = m
			break
		}
		time.Sleep(time.Millisecond)
	}
	if committed == nil {
		t.Fatal("no checkpoint epoch committed within a minute")
	}
	cancel()
	// Both processes die however the cancellation caught them; only the
	// committed epoch matters from here on.
	<-serveCh
	<-joinCh
	_ = ctrl.Close()

	// Segment 2: a fresh cluster resumed from the committed epoch must
	// converge to the reference fixed point.
	resumed := cfg
	resumed.Resume = "latest"
	res := runDistLoopback(t, snap, resumed)
	want := bcd.RefPageRank(g, 0.85, 1e-13, 1000)
	for v := range want {
		if d := math.Abs(res.Float[v] - want[v]); d > 1e-7 {
			t.Fatalf("resumed rank[%d] off by %g", v, d)
		}
	}
	// The resumed run keeps checkpointing under the adopted run id, so
	// the store's newest manifest must now be a later epoch of the same
	// run — or at minimum the original commit must still be loadable.
	m, err := store.Load(committed.RunID)
	if err != nil {
		t.Fatalf("committed run id vanished after resume: %v", err)
	}
	if m.Epoch < committed.Epoch {
		t.Fatalf("manifest epoch went backwards: %d after resuming from %d", m.Epoch, committed.Epoch)
	}
}

// TestDistResumeParentCommitCheckpoint is the on-disk compatibility
// guard for the shared-node refactor: testdata/parent_ckpt holds a tiny
// snapshot plus the epoch a two-node PageRank run of the commit *before*
// the refactor (bdc79d5, the dist.go engine copy) committed mid-run —
// manifest and both GABC shards, byte for byte as that binary wrote
// them. The current runtime must accept the identity triple, restore the
// shards (values, priorities, stamps, sequence), rebuild its caches and
// converge to the reference ranks.
func TestDistResumeParentCommitCheckpoint(t *testing.T) {
	const runID = "parent-bdc79d5"
	fixture := filepath.Join("testdata", "parent_ckpt")
	snap := filepath.Join(fixture, "graph.gabs")
	// Resume under a copy: the resumed run commits further epochs into the
	// store, and the checked-in files must stay untouched.
	ckdir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.CopyFS(ckdir, os.DirFS(filepath.Join(fixture, "ckpt"))); err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.NewDirStore(ckdir)
	if err != nil {
		t.Fatal(err)
	}
	before, err := store.Load(runID)
	if err != nil {
		t.Fatalf("fixture manifest: %v", err)
	}

	cfg := distConfig(2, "pr") // the shape the fixture was written under
	cfg.Epsilon = 1e-12
	cfg.CheckpointDir = ckdir
	cfg.CheckpointInterval = 2 * time.Millisecond
	cfg.Resume = runID
	res := runDistLoopback(t, snap, cfg)

	g, err := graph.Load(snap)
	if err != nil {
		t.Fatal(err)
	}
	want := bcd.RefPageRank(g, 0.85, 1e-13, 1000)
	for v := range want {
		if d := math.Abs(res.Float[v] - want[v]); d > 1e-7 {
			t.Fatalf("rank[%d] resumed from the parent commit's checkpoint is off by %g", v, d)
		}
	}
	after, err := store.Load(runID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Epoch < before.Epoch || after.GraphDigest != before.GraphDigest || after.ConfigHash != before.ConfigHash {
		t.Fatalf("manifest after resume %+v does not continue %+v", after, before)
	}
}

// startCoordProcess launches the built binary as a two-node PageRank
// coordinator and scrapes the control address it announces.
func startCoordProcess(t *testing.T, bin, snap, ckdir, valuesPath string, resume bool) (*exec.Cmd, string) {
	t.Helper()
	args := []string{
		"-algo", "pr", "-graph", snap, "-nodes", "2", "-eps", "1e-12",
		"-listen", "127.0.0.1:0", "-values-out", valuesPath,
		"-ckpt-dir", ckdir, "-ckpt-interval", "5ms",
		"-timeout", "2m",
	}
	if resume {
		args = append(args, "-resume", "latest")
	}
	coord := exec.Command(bin, args...)
	stdout, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	coord.Stderr = os.Stderr
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Process.Kill() })
	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, " nodes on "); strings.HasPrefix(line, "coordinating") && i >= 0 {
			addr = strings.Fields(line[i+len(" nodes on "):])[0]
			break
		}
	}
	if addr == "" {
		t.Fatalf("coordinator never announced its address: %v", sc.Err())
	}
	go func() { // drain so the coordinator never blocks on a full pipe
		for sc.Scan() {
		}
	}()
	return coord, addr
}

// TestDistTwoProcessKillAndResume is the acceptance crash: a real
// two-process -listen/-join run is SIGKILLed once its first checkpoint
// epoch commits, then a fresh two-process cluster with -resume latest
// must pick the run up and converge to the reference ranks.
func TestDistTwoProcessKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the full binary four times; the loopback suite covers the protocol in -short")
	}
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "graphabcd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/graphabcd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building binary: %v\n%s", err, out)
	}
	g, snap := distGraphFile(t, 99)
	ckdir := filepath.Join(dir, "ckpt")
	valuesPath := filepath.Join(dir, "values.txt")

	// Crash segment: SIGKILL both processes the moment a checkpoint epoch
	// commits — mid-flight batches, possibly mid-checkpoint-round.
	coord, addr := startCoordProcess(t, bin, snap, ckdir, valuesPath, false)
	joiner := exec.Command(bin, "-join", addr, "-timeout", "2m")
	joiner.Stdout, joiner.Stderr = os.Stderr, os.Stderr
	if err := joiner.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = joiner.Process.Kill() })
	store, err := checkpoint.NewDirStore(ckdir)
	if err != nil {
		t.Fatal(err)
	}
	var committed *checkpoint.Manifest
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); {
		if m, err := store.Latest(); err == nil {
			committed = m
			break
		}
		time.Sleep(time.Millisecond)
	}
	if committed == nil {
		t.Fatal("no checkpoint epoch committed within a minute")
	}
	_ = coord.Process.Kill() // SIGKILL: no shutdown path runs
	_ = joiner.Process.Kill()
	_ = coord.Wait()
	_ = joiner.Wait()

	// Resume segment: a fresh cluster restarts from the committed epoch.
	coord2, addr2 := startCoordProcess(t, bin, snap, ckdir, valuesPath, true)
	join2, err := exec.Command(bin, "-join", addr2, "-timeout", "2m").CombinedOutput()
	if err != nil {
		t.Fatalf("resumed joiner: %v\n%s", err, join2)
	}
	if err := coord2.Wait(); err != nil {
		t.Fatalf("resumed coordinator: %v", err)
	}
	raw, err := os.ReadFile(valuesPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	want := bcd.RefPageRank(g, 0.85, 1e-13, 1000)
	if len(lines) != len(want) {
		t.Fatalf("values file has %d lines, want %d", len(lines), len(want))
	}
	for v, line := range lines {
		got, err := strconv.ParseFloat(line, 64)
		if err != nil {
			t.Fatalf("values line %d %q: %v", v, line, err)
		}
		if d := math.Abs(got - want[v]); d > 1e-7 {
			t.Fatalf("rank[%d] from the resumed run off by %g", v, d)
		}
	}
}

// TestDistResumeRefusesMismatchedManifest fabricates committed manifests
// whose identity does not match the restarting cluster and requires
// Serve to refuse each before accepting a single joiner.
func TestDistResumeRefusesMismatchedManifest(t *testing.T) {
	_, snap := distGraphFile(t, 98)
	ckdir := t.TempDir()
	store, err := checkpoint.NewDirStore(ckdir)
	if err != nil {
		t.Fatal(err)
	}
	// A manifest claiming a different program, node count, and graph than
	// this snapshot's two-node cc run.
	if err := store.Commit(&checkpoint.Manifest{
		RunID: "other", Epoch: 3, Nodes: 2, Program: "pr",
		GraphDigest: "deadbeefdeadbeef", ConfigHash: "feedfacefeedface",
		NumVertices: 512, NumBlocks: 16, SavedUnixMs: 1,
	}); err != nil {
		t.Fatal(err)
	}
	ctrl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ctrl.Close() }()
	serve := func(mutate func(*tcp.DistConfig)) error {
		cfg := distConfig(2, "cc")
		cfg.CheckpointDir = ckdir
		cfg.Resume = "other"
		mutate(&cfg)
		_, err := tcp.Serve(context.Background(), ctrl, snap, cfg)
		return err
	}
	cases := []struct {
		name   string
		mutate func(*tcp.DistConfig)
		want   string
	}{
		{"program", func(c *tcp.DistConfig) {}, "program mismatch"},
		{"nodes", func(c *tcp.DistConfig) { c.Algo = "pr"; c.Nodes = 3 }, "nodes"},
		{"shape", func(c *tcp.DistConfig) { c.Algo = "pr"; c.BlockSize = 64 }, "shape"},
		{"digest", func(c *tcp.DistConfig) { c.Algo = "pr"; c.BlockSize = 32 }, "digest"},
		{"no dir", func(c *tcp.DistConfig) { c.CheckpointDir = "" }, "CheckpointDir"},
		{"unknown run", func(c *tcp.DistConfig) { c.Resume = "no-such-run" }, "no committed checkpoint"},
	}
	for _, tc := range cases {
		err := serve(tc.mutate)
		if err == nil {
			t.Fatalf("%s: Serve accepted a mismatched resume", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
