package tcp

import (
	"io"
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
// requires the second capture to allocate less than the node's owned
// value array: a checkpoint epoch reuses the share's capture buffers
// (values, priorities, flags, stamps) instead of growing the run's
// allocation footprint every interval. The owned values (2 MiB) are
// well over what one encode allocates for itself: binfmt's 1 MiB write
// buffer and 64 KiB staging block.
func TestRepeatedCaptureReusesBuffers(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(19, 2, 7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{Nodes: 2, BlockSize: 1024}.WithDefaults()
	nodes, err := cluster.NewNodes(g, bcd.PageRank{}, cfg, []int{1})
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
	lo, hi := d.VertexRange(d.ID)
	values := uint64(hi-lo) * 8
	if got := after.TotalAlloc - before.TotalAlloc; got >= values {
		t.Fatalf("second capture allocated %d bytes, want < %d (one owned value array)", got, values)
	}
}
