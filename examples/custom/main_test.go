package main

import (
	"math"
	"testing"

	"graphabcd"
	"graphabcd/internal/core"
)

// TestKernelBuildMatchesPerSlotInit: the arrays the kernel builds for
// this user-defined program hold, bit for bit, one Init per vertex of the
// built range and zero elsewhere, and one image per vertex that every
// in-edge slot of the range reads as one InitEdge of its source would
// leave it — over the whole graph and over a middle range — and no
// per-slot array.
func TestKernelBuildMatchesPerSlotInit(t *testing.T) {
	g, err := graphabcd.RMAT(graphabcd.DefaultRMAT(8, 4, 321))
	if err != nil {
		t.Fatal(err)
	}
	prog := PersonalizedPR{Damping: 0.85, Seeds: map[uint32]float64{17: 0.5, 41: 0.5}}
	n := g.NumVertices()
	for _, r := range [][2]int{{0, n}, {n / 3, 2 * n / 3}} {
		k, err := core.NewKernel[float64, float64](g, prog, 16, nil, 0, 0, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if k.Slots != nil || len(k.Images) != 1 || k.Images[0].Len() != n {
			t.Fatalf("range %v: want one image array of %d entries and no per-slot array", r, n)
		}
		in := func(v int) bool { return v >= r[0] && v < r[1] }
		for v := 0; v < n; v++ {
			var got, want float64
			k.Values.Load(int64(v), &got)
			if in(v) {
				want = prog.Init(uint32(v), g)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("range %v: value %d is %g, want %g", r, v, got, want)
			}
			if !in(v) {
				continue
			}
			for s := g.InOffset(v); s < g.InOffset(v+1); s++ {
				var got float64
				k.Images[0].Load(int64(g.InSrc(s)), &got)
				want := prog.InitEdge(g.InSrc(s), g)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("range %v: slot %d of vertex %d is %g, want %g", r, s, v, got, want)
				}
			}
		}
	}
}
