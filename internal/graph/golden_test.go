package graph

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// goldenGraph is the fixed input behind testdata/parent.gabs and
// testdata/parent.gabz: 200 vertices and 900 weighted edges from a
// fixed-seed xorshift, so ids, degree deltas and slot deltas include
// multi-byte varints, duplicates and self-loops.
func goldenGraph(t *testing.T) *Graph {
	t.Helper()
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	edges := make([]Edge, 900)
	for i := range edges {
		edges[i] = Edge{Src: uint32(next() % 200), Dst: uint32(next() % 200), Weight: float32(next()%1000) / 8}
	}
	g, err := FromEdges(200, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSnapshotParentGolden pins the GABS and GABZ encodings across
// commits: the checked-in files were written by the encoders of the
// commit before the section codec moved to internal/binfmt, and today's
// encoders must reproduce them byte for byte and decode them back to the
// same layout.
func TestSnapshotParentGolden(t *testing.T) {
	g := goldenGraph(t)
	for _, c := range []struct {
		file  string
		write func(io.Writer, *Graph) error
	}{
		{"parent.gabs", WriteSnapshot},
		{"parent.gabz", WriteSnapshotCompressed},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.write(&buf, g); err != nil {
			t.Fatal(err)
		}
		if got := buf.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("%s: encoder wrote %d bytes, golden has %d, first difference at byte %d",
				c.file, len(got), len(want), firstDiff(got, want))
		}
		back, err := ReadSnapshot(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		sameLayout(t, g, back)
	}
}

// firstDiff returns the first offset at which a and b differ (the
// shorter length when one is a prefix of the other).
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
