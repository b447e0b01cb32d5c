package core

import (
	"errors"
	"math"
	"path/filepath"
	"sync/atomic"
	"testing"

	"graphabcd/internal/bcd"
	"graphabcd/internal/edgestore"
	"graphabcd/internal/sched"
)

// The engine must compute identical results whether the static edge
// structure streams from memory, from an out-of-core file, or from the
// compressed file format — across engine modes.
func TestEngineWithEdgeSources(t *testing.T) {
	g := weightedGraph(t)
	src := uint32(3)
	want := bcd.RefSSSP(g, src)
	prWant := bcd.RefPageRank(g, 0.85, 1e-13, 1000)

	dir := t.TempDir()
	rawPath := filepath.Join(dir, "edges.bin")
	compPath := filepath.Join(dir, "edges.gabc")
	if err := edgestore.WriteFile(g, rawPath); err != nil {
		t.Fatal(err)
	}
	if err := edgestore.WriteCompressed(g, compPath); err != nil {
		t.Fatal(err)
	}

	sources := map[string]func() (edgestore.Source, error){
		"inmemory":   func() (edgestore.Source, error) { return edgestore.InMemory(g), nil },
		"file":       func() (edgestore.Source, error) { return edgestore.OpenFile(g, rawPath) },
		"compressed": func() (edgestore.Source, error) { return edgestore.OpenCompressed(g, compPath) },
	}
	for name, open := range sources {
		name, open := name, open
		t.Run(name, func(t *testing.T) {
			es, err := open()
			if err != nil {
				t.Fatal(err)
			}
			defer es.Close()

			for _, mode := range []Mode{Async, BSP} {
				cfg := Config{BlockSize: 32, Mode: mode, Policy: sched.Cyclic,
					NumPEs: 2, NumScatter: 2, Edges: es}
				res, err := Run[float64, float64](g, bcd.SSSP{Source: src}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for v := range want {
					got := res.Values[v]
					if got != want[v] && !(math.IsInf(got, 1) && math.IsInf(want[v], 1)) {
						t.Fatalf("%v: dist[%d] = %g, want %g", mode, v, got, want[v])
					}
				}
			}
			// Weighted PR sanity on the same source (weights ignored by PR
			// but the source still feeds init and gather).
			cfg := Config{BlockSize: 32, Mode: Async, Policy: sched.Cyclic,
				NumPEs: 2, NumScatter: 1, Epsilon: 1e-12, Edges: es}
			res, err := Run[float64, float64](g, bcd.PageRank{}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for v := range prWant {
				if math.Abs(res.Values[v]-prWant[v]) > 1e-7 {
					t.Fatalf("pr[%d] off by %g", v, math.Abs(res.Values[v]-prWant[v]))
				}
			}
		})
	}
}

// failingSource returns an error after a few successful blocks; the run
// must abort cleanly and surface the error.
type failingSource struct {
	inner edgestore.Source
	left  atomic.Int64
}

var errInjected = errors.New("injected edge-source failure")

func (f *failingSource) Block(vlo, vhi int, slo, shi int64) ([]uint32, []float32, func(), error) {
	if f.left.Add(-1) < 0 {
		return nil, nil, nil, errInjected
	}
	return f.inner.Block(vlo, vhi, slo, shi)
}

func (f *failingSource) Bytes() int64 { return f.inner.Bytes() }

func (f *failingSource) Close() error { return f.inner.Close() }

func TestEngineSurfacesEdgeSourceErrors(t *testing.T) {
	g := testGraph(t)
	for _, mode := range []Mode{Async, Barrier, BSP} {
		// left=0 fails the kernel build's first read; left=20 survives the
		// build (one read per GOMAXPROCS slice) and a few block reads,
		// then fails mid-run.
		for _, left := range []int64{0, 20} {
			fs := &failingSource{inner: edgestore.InMemory(g)}
			fs.left.Store(left)
			cfg := Config{BlockSize: 16, Mode: mode, Policy: sched.Cyclic,
				NumPEs: 2, NumScatter: 1, Epsilon: 1e-12, Edges: fs}
			_, err := Run[float64, float64](g, bcd.PageRank{}, cfg)
			if !errors.Is(err, errInjected) {
				t.Fatalf("%v, %d reads left: err = %v, want injected failure", mode, left, err)
			}
		}
	}
}
