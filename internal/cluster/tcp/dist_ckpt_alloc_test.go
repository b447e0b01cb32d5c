package tcp

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"graphabcd/internal/bcd"
	"graphabcd/internal/checkpoint"
	"graphabcd/internal/cluster"
	"graphabcd/internal/gen"
)

// discardStore is a checkpoint.Store that encodes every state file into
// io.Discard and commits nothing.
type discardStore struct{ checkpoint.Store }

func (discardStore) WriteState(_ string, _ uint64, _ int, write func(io.Writer) error) error {
	return write(io.Discard)
}

// TestRepeatedCaptureReusesBuffers captures one node's share twice and
// requires the second capture to allocate less than binfmt's 64 KiB
// staging block: a checkpoint epoch reuses the share's capture buffers
// (values, priorities, flags, stamps) and its encoder's write buffers
// (binfmt's 1 MiB write buffer and the staging block) instead of growing
// the run's allocation footprint every interval. The owned values are
// 2 MiB, so a fresh capture array of any kind fails too.
func TestRepeatedCaptureReusesBuffers(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(19, 2, 7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{Nodes: 2, BlockSize: 1024}.WithDefaults()
	nodes, err := cluster.NewNodes(g, bcd.PageRank{}, cfg, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := &distRun[float64, float64]{Node: nodes[0], a: distAssign{
		algo: algoPR, cfg: cfg, ckpt: ckptPlan{dir: t.TempDir(), runID: "alloc"},
	}}
	if err := d.openCheckpoint(); err != nil {
		t.Fatal(err)
	}
	d.ckpt.Store = discardStore{}
	if err := d.ckpt.Capture(1); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := d.ckpt.Capture(2); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const staging = 64 << 10
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("second capture allocated %d bytes", got)
	if got >= staging {
		t.Fatalf("second capture allocated %d bytes, want < %d (one staging block)", got, staging)
	}
}

// countingStore counts the state files read through it.
type countingStore struct {
	checkpoint.Store
	reads int
}

func (s *countingStore) ReadState(runID string, epoch uint64, node int) (io.ReadCloser, error) {
	s.reads++
	return s.Store.ReadState(runID, epoch, node)
}

// TestResumeReadsEachShardOnce resumes testdata/parent_ckpt's two-node
// epoch on the coordinator's side — Serve's plan, then node 0's share —
// and counts the shard reads: one per shard. Node 0 restores the shards
// the plan decoded instead of reading and decoding them again.
func TestResumeReadsEachShardOnce(t *testing.T) {
	fixture := filepath.Join("testdata", "parent_ckpt")
	ckdir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.CopyFS(ckdir, os.DirFS(filepath.Join(fixture, "ckpt"))); err != nil {
		t.Fatal(err)
	}
	ds, err := checkpoint.NewDirStore(ckdir)
	if err != nil {
		t.Fatal(err)
	}
	store := &countingStore{Store: ds}
	snap, err := openSnapshotSections(filepath.Join(fixture, "graph.gabs"))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.close()
	cfg := cluster.Config{Nodes: 2, BlockSize: 32}.WithDefaults() // the fixture's shape
	plan, err := resolveCheckpointPlan(DistConfig{Nodes: 2, Algo: "pr", CheckpointDir: ckdir, Resume: "parent-bdc79d5"},
		snap, cfg.BlockSize, store)
	if err != nil {
		t.Fatal(err)
	}
	a := distAssign{n: snap.n, m: snap.m, algo: algoPR, cfg: cfg, ckpt: plan}
	g, err := snap.ownedGraph(a)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := cluster.NewNodes(g, bcd.PageRank{}, cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := &distRun[float64, float64]{Node: nodes[0], a: a}
	if err := d.openCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if store.reads != cfg.Nodes {
		t.Fatalf("resume read %d shards in the coordinator's process, want %d (each once)", store.reads, cfg.Nodes)
	}
}
