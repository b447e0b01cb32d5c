package tcp_test

import (
	"context"
	"encoding/binary"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"graphabcd/internal/cluster/tcp"
	"graphabcd/internal/edgestore"
	"graphabcd/internal/graph"
)

// TestHostileSnapshotHeaderRefused feeds header-only plain snapshots
// claiming huge graphs to both plain-snapshot openers: the coordinator's
// section server and the pread edge store. Each must return an error
// having allocated almost nothing — the file's size, not its header,
// decides what may be read.
func TestHostileSnapshotHeaderRefused(t *testing.T) {
	ctrl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ctrl.Close() }()
	small, err := graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		n, m uint64
	}{
		{"n=2^31", 1 << 31, 0},
		{"n=2^31-1", 1<<31 - 1, 0},
		{"m=2^31-1", 2, 1<<31 - 1},
	} {
		hdr := append([]byte("GABS"), make([]byte, 20)...)
		binary.LittleEndian.PutUint32(hdr[4:], 1)
		binary.LittleEndian.PutUint64(hdr[8:], c.n)
		binary.LittleEndian.PutUint64(hdr[16:], c.m)
		path := filepath.Join(t.TempDir(), "hostile.gabs")
		if err := os.WriteFile(path, hdr, 0o644); err != nil {
			t.Fatal(err)
		}
		for opener, open := range map[string]func() error{
			"tcp.Serve": func() error {
				_, err := tcp.Serve(context.Background(), ctrl, path, tcp.DistConfig{Nodes: 1, Algo: "cc"})
				return err
			},
			"edgestore.OpenSnapshot": func() error {
				_, err := edgestore.OpenSnapshot(small, path)
				return err
			},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := open()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s accepted a header-only snapshot with %s", opener, c.name)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
				t.Fatalf("%s allocated %d bytes refusing %s: %v", opener, grew, c.name, err)
			}
		}
	}
}
