package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"graphabcd/internal/bcd"
	"graphabcd/internal/gen"
	"graphabcd/internal/graph"
	"graphabcd/internal/sched"
	"graphabcd/internal/telemetry"
	"graphabcd/internal/word"
)

// TestKernelScatterTwoOwners drives Scatter over a vertex range by hand, on the
// calling goroutine, under a two-owner table: each vertex that moved by
// more than epsilon must store its image once in node 0's image array,
// the others keep theirs; node 0's blocks must be activated with the
// summed mass, none of node 1's; and exactly the vertices with an
// out-edge into node 1's blocks must leave through the per-owner batch,
// each once, as its id and image — whole batches via the flush hook, the
// remainder left in Out — while the counters still count every remote
// slot.
func TestKernelScatterTwoOwners(t *testing.T) {
	g := degenerateGraph(t, 21, 1, false)
	const blockSize, batchSize, eps = 7, 4, 0.25
	k, err := NewKernel[float64, float64](g, bcd.PageRank{}, blockSize, nil, eps, batchSize, 0, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	nb := k.Part.NumBlocks()
	for b := 1; b < nb; b += 2 {
		k.Owner[b].Store(1)
	}
	type image struct {
		src  uint32
		word uint64
	}
	var flushed []image
	flushes := 0
	st := sched.NewState(nb)
	tel := telemetry.New(telemetry.Options{})
	w := k.NewWorker(&tel.Shards(1)[0], 0, st, func(to int, b *Batch, _ *telemetry.Shard) {
		if to != 1 || len(b.Srcs) != batchSize || len(b.Words) != batchSize {
			t.Fatalf("flush hook got %d/%d entries for node %d, want %d for node 1", len(b.Srcs), len(b.Words), to, batchSize)
		}
		for i := range b.Srcs {
			flushed = append(flushed, image{b.Srcs[i], b.Words[i]})
		}
		b.Srcs, b.Words = b.Srcs[:0], b.Words[:0]
		flushes++
	})
	w.Out = make([]Batch, 2)

	// Two blocks' worth of vertices just changed; vertex 2 did not move and
	// vertices 3 and 8 moved by no more than epsilon, so they do not scatter.
	deltas := []float64{0.5, 1, 0, 0.1, 2.5, 3, 3.5, 4, 0.25, 5, 5.5, 6, 6.5, 7}
	var wantRemote []image
	wantImages := snapshot(k.Images[0])
	wantMass := make([]float64, nb)
	var wantWrites, remoteSlots int64
	for v := range deltas {
		k.Values.Store(int64(v), float64(100+v))
		sval := k.Prog.ScatterValue(uint32(v), float64(100+v), g)
		enc := make([]uint64, 1)
		k.Prog.Codec().Encode(sval, enc)
		if deltas[v] > eps {
			wantImages[v] = enc[0]
		}
		for i := g.OutOffset(v); i < g.OutOffset(v+1); i++ {
			db := k.Part.BlockOf(g.OutDst(i))
			switch {
			case deltas[v] <= eps:
			case k.Owner[db].Load() == 1:
				if n := len(wantRemote); n == 0 || wantRemote[n-1].src != uint32(v) {
					wantRemote = append(wantRemote, image{uint32(v), enc[0]})
				}
				wantWrites++
				remoteSlots++
			default:
				wantMass[db] += deltas[v]
				wantWrites++
			}
		}
	}
	if len(wantRemote) <= batchSize || len(wantRemote)%batchSize == 0 || remoteSlots == int64(len(wantRemote)) {
		t.Fatalf("fixture has %d remote images over %d slots; want more than one batch, a remainder, and a vertex feeding two remote slots",
			len(wantRemote), remoteSlots)
	}
	if writes := k.Scatter(0, len(deltas), deltas, nil, w); writes != wantWrites {
		t.Fatalf("Scatter wrote %d slots, want %d", writes, wantWrites)
	}

	for v, got := range snapshot(k.Images[0]) {
		if got != wantImages[v] {
			t.Errorf("vertex %d's image is %#x, want %#x (its scatter image if it moved by more than epsilon, else unchanged)", v, got, wantImages[v])
		}
	}
	if flushes != len(wantRemote)/batchSize {
		t.Errorf("flush hook called %d times for %d remote images at batch size %d", flushes, len(wantRemote), batchSize)
	}
	rest := w.Out[1]
	if len(rest.Srcs) != len(wantRemote)%batchSize || len(w.Out[0].Srcs) != 0 {
		t.Fatalf("Out holds %d entries for node 1 and %d for node 0, want %d and 0", len(rest.Srcs), len(w.Out[0].Srcs), len(wantRemote)%batchSize)
	}
	got := flushed
	for i := range rest.Srcs {
		got = append(got, image{rest.Srcs[i], rest.Words[i]})
	}
	if !slices.Equal(got, wantRemote) {
		t.Errorf("remote updates %v, want %v", got, wantRemote)
	}
	for b := 0; b < nb; b++ {
		if st.Priority(b) != wantMass[b] || st.Active(b) != (wantMass[b] > 0) {
			t.Errorf("block %d: mass %g active %v, want mass %g", b, st.Priority(b), st.Active(b), wantMass[b])
		}
		if k.Owner[b].Load() == 1 && wantMass[b] != 0 {
			t.Fatalf("fixture bug: mass expected on node 1's block %d", b)
		}
	}
	if sw, lw, mw := tel.Total(telemetry.CtrScatterWrites), tel.Total(telemetry.CtrLocalWrites), tel.Total(telemetry.CtrMessagesSent); sw != wantWrites || lw != wantWrites-remoteSlots || mw != remoteSlots {
		t.Errorf("counted %d scatter / %d local / %d remote writes, want %d / %d / %d", sw, lw, mw, wantWrites, wantWrites-remoteSlots, remoteSlots)
	}
}

// scatterMatchesPerEdgeStores checks Scatter's store path against the
// per-slot loop it replaced: for one owner and for two, over three
// gather-scatter rounds, every in-edge slot of node 0's blocks must then
// gather (perSlot) word for word what one codec-encoding StoreBuf (or
// accumulating RMW) per owned out-edge leaves — and an operation-based
// program's slots of node 1's blocks must still hold what they held —
// and node 1's batch must carry, in order, the image of each vertex with
// an out-edge the loop skipped, once.
func scatterMatchesPerEdgeStores[V, M any](t *testing.T, g *graph.Graph, prog bcd.Program[V, M], eps float64) {
	t.Helper()
	n, ne := g.NumVertices(), int64(g.NumEdges())
	for _, owners := range []int{1, 2} {
		k, err := NewKernel(g, prog, 7, nil, eps, math.MaxInt, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		nb := k.Part.NumBlocks()
		for b := 1; b < nb && owners == 2; b += 2 {
			k.Owner[b].Store(1)
		}
		tel := telemetry.New(telemetry.Options{})
		w := k.NewWorker(&tel.Shards(1)[0], 0, sched.NewState(nb), nil)
		w.Out = make([]Batch, 2)
		codec, words := prog.Codec(), k.Values.Words()
		ref := word.NewArray(codec, int(ne))
		got, want := make([]uint64, ne*int64(words)), make([]uint64, ne*int64(words))
		buf, enc := make([]uint64, max(words, 2)), make([]uint64, words)
		deltas := make([]float64, n)
		var dvals []V
		if k.op != nil {
			dvals = make([]V, n)
		}
		for round := 0; round < 3; round++ {
			if _, err := k.GatherApply(0, n, deltas, dvals, w); err != nil {
				t.Fatal(err)
			}
			ref.StoreWords(0, perSlot(k, 0))
			var remote Batch
			var val, cur V
			for v := 0; v < n; v++ {
				if d := deltas[v]; d <= eps && (k.op == nil || d == 0) {
					continue
				}
				k.Values.LoadBuf(int64(v), &val, buf)
				for i := g.OutOffset(v); i < g.OutOffset(v+1); i++ {
					slot, db := g.OutPos(i), k.Part.BlockOf(g.OutDst(i))
					switch {
					case k.Owner[db].Load() != 0:
						if n := len(remote.Srcs); k.op == nil && (n == 0 || remote.Srcs[n-1] != uint32(v)) {
							codec.Encode(prog.ScatterValue(uint32(v), val, g), enc)
							remote.Srcs = append(remote.Srcs, uint32(v))
							remote.Words = append(remote.Words, enc...)
						}
					case k.op != nil:
						ref.RMW(slot, buf, &cur, func(c V) V { return k.op.AccumulateDelta(c, dvals[v]) })
					default:
						ref.StoreBuf(slot, prog.ScatterValue(uint32(v), val, g), buf)
					}
				}
			}
			ref.SnapshotWords(0, ne, want)

			k.Scatter(0, n, deltas, dvals, w)

			copy(got, perSlot(k, 0))
			for v := 0; v < n; v++ {
				if k.op == nil && k.Owner[k.Part.BlockOf(uint32(v))].Load() != 0 {
					continue // node 1 gathers from its own images, not node 0's
				}
				for s := g.InOffset(v) * int64(words); s < g.InOffset(v+1)*int64(words); s++ {
					if got[s] != want[s] {
						t.Fatalf("%s, %d owner(s), round %d: slot word %d is %#x after Scatter, the per-edge loop leaves %#x",
							prog.Name(), owners, round, s, got[s], want[s])
					}
				}
			}
			if out := &w.Out[1]; k.op == nil {
				if !slices.Equal(out.Srcs, remote.Srcs) || !slices.Equal(out.Words, remote.Words) {
					t.Fatalf("%s, %d owner(s), round %d: node 1's batch holds %d images, want the %d of the vertices the per-edge loop skipped",
						prog.Name(), owners, round, len(out.Srcs), len(remote.Srcs))
				}
				out.Srcs, out.Words = out.Srcs[:0], out.Words[:0]
			}
		}
	}
}

// TestScatterStorePath covers the programs eachKernelCaller's tables do
// not reach: the multi-word codec (cf's Vec32, at an odd and an even
// rank) and the remaining registry programs.
func TestScatterStorePath(t *testing.T) {
	dg := degenerateGraph(t, 15, 5, true)
	scatterMatchesPerEdgeStores[[]float32, []float64](t, dg, bcd.CF{Rank: 8, LearnRate: 0.3, Lambda: 0.01}, 0)
	scatterMatchesPerEdgeStores[[]float32, []float64](t, dg, bcd.CF{Rank: 3, LearnRate: 0.3, Lambda: 0.01}, 1e-3)
	scatterMatchesPerEdgeStores[float64, float64](t, dg, bcd.PPR{Seeds: []uint32{1, 5}}, 1e-12)
	scatterMatchesPerEdgeStores[uint64, bcd.KCoreAccum](t, dg, bcd.KCore{}, 0)
	scatterMatchesPerEdgeStores[uint64, bcd.LPAccum](t, dg, bcd.LabelProp{}, 0)
}

// TestGatherRunFold checks GatherApply's run fold at its edges: hubs of
// in-degree 0, 1, gatherRun-1, gatherRun, gatherRun+1 and 3*gatherRun+7
// gather through zero, one or several Program.Gather calls, and every
// registry program must leave the value and delta bits a per-edge fold
// leaves — cf at an odd and an even rank, pagerank-delta through
// TakeWords.
func TestGatherRunFold(t *testing.T) {
	degs := []int{0, 1, gatherRun - 1, gatherRun, gatherRun + 1, 3*gatherRun + 7}
	var edges []graph.Edge
	leaf := len(degs)
	for hub, d := range degs {
		for range d {
			edges = append(edges, graph.Edge{Src: uint32(leaf), Dst: uint32(hub), Weight: float32(1 + leaf%5)})
			leaf++
		}
	}
	g, err := graph.FromEdges(leaf, edges)
	if err != nil {
		t.Fatal(err)
	}
	hubs := len(degs)
	f64 := func(i int) float64 { return 1 / float64(i+3) }
	u64 := func(i int) uint64 { return uint64(i * 7919 % 613) }
	ppr, err := bcd.NewPPR(0.85, []uint32{0, 9})
	if err != nil {
		t.Fatal(err)
	}
	runFoldMatchesPerEdge(t, g, hubs, bcd.PageRank{}, f64)
	runFoldMatchesPerEdge(t, g, hubs, bcd.PageRankDelta{}, f64)
	runFoldMatchesPerEdge(t, g, hubs, ppr, f64)
	runFoldMatchesPerEdge(t, g, hubs, bcd.SSSP{}, func(i int) float64 {
		if i%11 == 0 {
			return math.Inf(1)
		}
		return f64(i)
	})
	runFoldMatchesPerEdge(t, g, hubs, bcd.BFS{}, func(i int) uint64 {
		if i%11 == 0 {
			return bcd.Unreached
		}
		return u64(i)
	})
	runFoldMatchesPerEdge(t, g, hubs, bcd.CC{}, u64)
	runFoldMatchesPerEdge(t, g, hubs, bcd.LabelProp{}, func(i int) uint64 { return uint64(i % 7) })
	runFoldMatchesPerEdge(t, g, hubs, bcd.KCore{}, u64)
	for _, rank := range []int{7, 8} {
		cf := bcd.CF{Rank: rank, LearnRate: 0.3, Lambda: 0.01}
		runFoldMatchesPerEdge(t, g, hubs, cf, func(i int) []float32 { return cf.Init(uint32(i), g) })
	}
}

// runFoldMatchesPerEdge fills values and in-edge slots from val — every
// in-edge has a source of its own, so a state-based program's slots are
// its sources' images — folds each of vertices [0, hubs) one in-edge per
// Gather call as the reference, then runs GatherApply over them and
// compares the bits.
func runFoldMatchesPerEdge[V, M any](t *testing.T, g *graph.Graph, hubs int, prog bcd.Program[V, M], val func(int) V) {
	t.Helper()
	n, ne := g.NumVertices(), g.NumEdges()
	k, err := NewKernel(g, prog, n, nil, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		k.Values.Store(int64(v), val(v))
	}
	for s := 0; s < ne; s++ {
		if k.op != nil {
			k.Slots.Store(int64(s), val(n+s))
		} else {
			k.Images[0].Store(int64(g.InSrc(int64(s))), val(n+s))
		}
	}
	codec, words := prog.Codec(), k.Values.Words()
	slots := perSlot(k, 0)
	want, enc := make([]uint64, hubs*words), make([]uint64, words)
	wantDeltas := make([]float64, hubs)
	for h := 0; h < hubs; h++ {
		var old, src V
		k.Values.Load(int64(h), &old)
		acc := prog.NewAccum()
		slo, shi := g.InOffset(h), g.InOffset(h+1)
		for s := slo; s < shi; s++ {
			codec.DecodeInto(slots[s*int64(words):(s+1)*int64(words)], &src)
			codec.Encode(src, enc)
			prog.Gather(&acc, old, []float32{g.InWeight(s)}, enc)
		}
		nv := prog.Apply(uint32(h), old, &acc, shi-slo, g)
		switch {
		case prog.Delta(old, nv) == 0:
			nv = old
		case k.op != nil:
			wantDeltas[h] = prog.Delta(old, nv)
		default:
			wantDeltas[h] = prog.Delta(prog.ScatterValue(uint32(h), old, g), prog.ScatterValue(uint32(h), nv, g))
		}
		codec.Encode(nv, want[h*words:(h+1)*words])
	}

	tel := telemetry.New(telemetry.Options{})
	w := k.NewWorker(&tel.Shards(1)[0], 0, sched.NewState(k.Part.NumBlocks()), nil)
	deltas, dvals := make([]float64, hubs), make([]V, hubs)
	if _, err := k.GatherApply(0, hubs, deltas, dvals, w); err != nil {
		t.Fatal(err)
	}
	got := make([]uint64, hubs*words)
	k.Values.SnapshotWords(0, int64(hubs), got)
	for h := 0; h < hubs; h++ {
		deg := g.InOffset(h+1) - g.InOffset(h)
		if !slices.Equal(got[h*words:(h+1)*words], want[h*words:(h+1)*words]) {
			t.Errorf("%s: in-degree %d: value %#x, per-edge fold %#x", prog.Name(), deg, got[h*words:(h+1)*words], want[h*words:(h+1)*words])
		}
		if math.Float64bits(deltas[h]) != math.Float64bits(wantDeltas[h]) {
			t.Errorf("%s: in-degree %d: delta %g, per-edge fold %g", prog.Name(), deg, deltas[h], wantDeltas[h])
		}
	}
	if k.op != nil {
		taken := make([]uint64, g.InOffset(hubs))
		k.Slots.SnapshotWords(0, g.InOffset(hubs), taken)
		for s, word := range taken {
			if word != k.zero {
				t.Fatalf("%s: consumed slot %d holds %#x, want the zero delta", prog.Name(), s, word)
			}
		}
	}
}

// TestImageGatherMatchesPerSlotGather checks the image gather against
// the per-slot gather it replaced, bit for bit: over two sequential
// sweeps of every state-based registry program (cf at an odd and an even
// rank), each block's GatherApply must leave the value and delta bits
// that the per-slot fold leaves — the images fanned out to the CSC slots
// (perSlot), then folded gatherRun slots per Program.Gather call.
func TestImageGatherMatchesPerSlotGather(t *testing.T) {
	g := degenerateGraph(t, 29, 5, false)
	ppr, err := bcd.NewPPR(0.85, []uint32{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	imageGatherMatchesPerSlot[float64, float64](t, g, bcd.PageRank{})
	imageGatherMatchesPerSlot[float64, float64](t, g, ppr)
	imageGatherMatchesPerSlot[float64, float64](t, g, bcd.SSSP{Source: 3})
	imageGatherMatchesPerSlot[uint64, uint64](t, g, bcd.BFS{Source: 3})
	imageGatherMatchesPerSlot[uint64, uint64](t, g, bcd.CC{})
	imageGatherMatchesPerSlot[uint64, bcd.LPAccum](t, g, bcd.LabelProp{})
	imageGatherMatchesPerSlot[uint64, bcd.KCoreAccum](t, g, bcd.KCore{})
	for _, rank := range []int{7, 8} {
		imageGatherMatchesPerSlot[[]float32, []float64](t, g, bcd.CF{Rank: rank, LearnRate: 0.3, Lambda: 0.01})
	}
}

func imageGatherMatchesPerSlot[V, M any](t *testing.T, g *graph.Graph, prog bcd.Program[V, M]) {
	t.Helper()
	const blockSize = 7
	n := g.NumVertices()
	k, err := NewKernel(g, prog, blockSize, nil, 0, 0, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if k.op != nil {
		t.Fatalf("%s is operation-based: its slots are per-edge state, not images", prog.Name())
	}
	nb, codec, words := k.Part.NumBlocks(), prog.Codec(), k.Values.Words()
	tel := telemetry.New(telemetry.Options{})
	w := k.NewWorker(&tel.Shards(1)[0], 0, sched.NewState(nb), nil)
	deltas := make([]float64, blockSize)
	changed := 0
	for sweep := range 2 {
		for b := range nb {
			lo, hi := k.Part.VertexRange(b)
			slots := perSlot(k, 0)
			want, wantDeltas := make([]uint64, (hi-lo)*words), make([]float64, hi-lo)
			for v := lo; v < hi; v++ {
				var old V
				k.Values.Load(int64(v), &old)
				acc := prog.NewAccum()
				slo, shi := g.InOffset(v), g.InOffset(v+1)
				for rlo := slo; rlo < shi; rlo += gatherRun {
					rhi := min(rlo+gatherRun, shi)
					prog.Gather(&acc, old, g.InWeightsRange(rlo, rhi), slots[rlo*int64(words):rhi*int64(words)])
				}
				nv := prog.Apply(uint32(v), old, &acc, shi-slo, g)
				if prog.Delta(old, nv) == 0 {
					nv = old
				} else {
					wantDeltas[v-lo] = prog.Delta(prog.ScatterValue(uint32(v), old, g), prog.ScatterValue(uint32(v), nv, g))
				}
				codec.Encode(nv, want[(v-lo)*words:(v-lo+1)*words])
			}
			if _, err := k.GatherApply(lo, hi, deltas[:hi-lo], nil, w); err != nil {
				t.Fatal(err)
			}
			got := make([]uint64, (hi-lo)*words)
			k.Values.SnapshotWords(int64(lo), int64(hi), got)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("%s, sweep %d, block %d: value word %d is %#x from the images, %#x from the per-slot gather",
					prog.Name(), sweep, b, i, got[i], want[i])
			}
			for i, d := range deltas[:hi-lo] {
				if math.Float64bits(d) != math.Float64bits(wantDeltas[i]) {
					t.Fatalf("%s, sweep %d: vertex %d's delta is %g from the images, %g from the per-slot gather",
						prog.Name(), sweep, lo+i, d, wantDeltas[i])
				}
				if d != 0 {
					changed++
				}
			}
			k.Scatter(lo, hi, deltas[:hi-lo], nil, w)
		}
	}
	if changed == 0 {
		t.Fatalf("%s: no vertex changed over the sweeps: the comparison shows nothing", prog.Name())
	}
}

// BenchmarkScatterStore times the scatter alone: every vertex of an
// R-MAT graph scatters its value each iteration, block after block as
// an engine worker does — one image store per vertex and the activation
// walk over its out-edges. ns/out-edge is the number to compare across
// commits. Scale 16 is the pr_rmat workload's shape (65k vertices, 1M
// edges).
func BenchmarkScatterStore(b *testing.B) {
	for _, scale := range []int{14, 16} {
		b.Run(fmt.Sprintf("rmat%d", scale), func(b *testing.B) {
			g, err := gen.RMAT(gen.DefaultRMAT(scale, 16, 1))
			if err != nil {
				b.Fatal(err)
			}
			n := g.NumVertices()
			k, err := NewKernel[float64, float64](g, bcd.PageRank{}, n/256, nil, 1e-9, 0, 0, n)
			if err != nil {
				b.Fatal(err)
			}
			tel := telemetry.New(telemetry.Options{})
			w := k.NewWorker(&tel.Shards(1)[0], 0, sched.NewState(k.Part.NumBlocks()), nil)
			deltas := make([]float64, n)
			for v := range deltas {
				deltas[v] = 1
			}
			var writes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for blk := 0; blk < k.Part.NumBlocks(); blk++ {
					lo, hi := k.Part.VertexRange(blk)
					writes += k.Scatter(lo, hi, deltas[lo:hi], nil, w)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(writes), "ns/out-edge")
		})
	}
}
