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
// calling goroutine, under a two-owner table: slots of node 0's blocks
// must be stored and their blocks activated with the summed mass, and
// exactly the slots of node 1's blocks must leave through the per-owner
// batch — whole batches via the flush hook, the remainder left in Out.
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
	type update struct {
		slot  int64
		block int32
		word  uint64
	}
	var flushed []update
	flushes := 0
	st := sched.NewState(nb)
	tel := telemetry.New(telemetry.Options{})
	w := k.NewWorker(&tel.Shards(1)[0], 0, st, func(to int, b *Batch, _ *telemetry.Shard) {
		if to != 1 || len(b.Slots) != batchSize || len(b.Blocks) != batchSize || len(b.Words) != batchSize {
			t.Fatalf("flush hook got %d/%d/%d entries for node %d, want %d for node 1", len(b.Slots), len(b.Blocks), len(b.Words), to, batchSize)
		}
		for i := range b.Slots {
			flushed = append(flushed, update{b.Slots[i], b.Blocks[i], b.Words[i]})
		}
		b.Slots, b.Blocks, b.Words = b.Slots[:0], b.Blocks[:0], b.Words[:0]
		flushes++
	})
	w.Out = make([]Batch, 2)

	// Two blocks' worth of vertices just changed; vertex 2 did not move and
	// vertices 3 and 8 moved by no more than epsilon, so they do not scatter.
	deltas := []float64{0.5, 1, 0, 0.1, 2.5, 3, 3.5, 4, 0.25, 5, 5.5, 6, 6.5, 7}
	var wantRemote, wantStored []update
	wantMass := make([]float64, nb)
	var wantWrites int64
	untouched := map[int64]bool{}
	for v := range deltas {
		k.Values.Store(int64(v), float64(100+v))
		sval := k.Prog.ScatterValue(uint32(v), float64(100+v), g)
		enc := make([]uint64, 1)
		k.Prog.Codec().Encode(sval, enc)
		for i := g.OutOffset(v); i < g.OutOffset(v+1); i++ {
			slot, db := g.OutPos(i), k.Part.BlockOf(g.OutDst(i))
			switch {
			case deltas[v] <= eps:
				untouched[slot] = true
			case k.Owner[db].Load() == 1:
				untouched[slot] = true
				wantRemote = append(wantRemote, update{slot, int32(db), enc[0]})
				wantWrites++
			default:
				wantMass[db] += deltas[v]
				wantWrites++
				wantStored = append(wantStored, update{slot, int32(db), enc[0]})
			}
		}
	}
	if len(wantRemote) <= batchSize || len(wantRemote)%batchSize == 0 {
		t.Fatalf("fixture has %d remote updates; want more than one batch and a remainder", len(wantRemote))
	}
	before := make(map[int64]float64, len(untouched))
	for slot := range untouched {
		var v float64
		k.Cache.Load(slot, &v)
		before[slot] = v
	}

	if writes := k.Scatter(0, len(deltas), deltas, nil, w); writes != wantWrites {
		t.Fatalf("Scatter wrote %d slots, want %d", writes, wantWrites)
	}

	for _, u := range wantStored {
		if got := make([]uint64, 1); k.Cache.SnapshotWords(u.slot, u.slot+1, got) != 1 || got[0] != u.word {
			t.Errorf("owned slot %d of block %d holds word %#x, want the source's scatter image %#x", u.slot, u.block, got[0], u.word)
		}
	}
	for slot, old := range before {
		var v float64
		if k.Cache.Load(slot, &v); v != old {
			t.Errorf("slot %d (sub-epsilon source, or owned by node 1) was stored: %g -> %g", slot, old, v)
		}
	}
	if flushes != len(wantRemote)/batchSize {
		t.Errorf("flush hook called %d times for %d remote updates at batch size %d", flushes, len(wantRemote), batchSize)
	}
	rest := w.Out[1]
	if len(rest.Slots) != len(wantRemote)%batchSize || len(w.Out[0].Slots) != 0 {
		t.Fatalf("Out holds %d entries for node 1 and %d for node 0, want %d and 0", len(rest.Slots), len(w.Out[0].Slots), len(wantRemote)%batchSize)
	}
	got := flushed
	for i := range rest.Slots {
		got = append(got, update{rest.Slots[i], rest.Blocks[i], rest.Words[i]})
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
	if sw, lw := tel.Total(telemetry.CtrScatterWrites), tel.Total(telemetry.CtrLocalWrites); sw != wantWrites || lw != wantWrites-int64(len(wantRemote)) {
		t.Errorf("counted %d scatter / %d local writes, want %d / %d", sw, lw, wantWrites, wantWrites-int64(len(wantRemote)))
	}
}

// scatterMatchesPerEdgeStores checks Scatter's store path against the loop
// it replaced: for one owner and for two, over three gather-scatter
// rounds, the cache array after Scatter must be word-for-word what one
// codec-encoding StoreBuf (or accumulating RMW) per owned out-edge leaves
// — so every slot of node 1's blocks still holds what it held — and node
// 1's batch must carry exactly the updates the loop skipped, in order.
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
		codec, words := prog.Codec(), k.Cache.Words()
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
			k.Cache.SnapshotWords(0, ne, want)
			ref.StoreWords(0, want)
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
						if k.op == nil {
							codec.Encode(prog.ScatterValue(uint32(v), val, g), enc)
							remote.Slots = append(remote.Slots, slot)
							remote.Blocks = append(remote.Blocks, int32(db))
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

			k.Cache.SnapshotWords(0, ne, got)
			if !slices.Equal(got, want) {
				for s := range got {
					if got[s] != want[s] {
						t.Fatalf("%s, %d owner(s), round %d: cache word %d is %#x after Scatter, the per-edge loop leaves %#x",
							prog.Name(), owners, round, s, got[s], want[s])
					}
				}
			}
			if out := &w.Out[1]; k.op == nil {
				if !slices.Equal(out.Slots, remote.Slots) || !slices.Equal(out.Blocks, remote.Blocks) || !slices.Equal(out.Words, remote.Words) {
					t.Fatalf("%s, %d owner(s), round %d: node 1's batch holds %d updates, want the %d the per-edge loop skipped",
						prog.Name(), owners, round, len(out.Slots), len(remote.Slots))
				}
				out.Slots, out.Blocks, out.Words = out.Slots[:0], out.Blocks[:0], out.Words[:0]
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

// runFoldMatchesPerEdge fills values and cache slots from val, folds each
// of vertices [0, hubs) one in-edge per Gather call as the reference,
// then runs GatherApply over them and compares the bits.
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
		k.Cache.Store(int64(s), val(n+s))
	}
	codec, words := prog.Codec(), k.Cache.Words()
	want, enc := make([]uint64, hubs*words), make([]uint64, words)
	wantDeltas := make([]float64, hubs)
	for h := 0; h < hubs; h++ {
		var old, src V
		k.Values.Load(int64(h), &old)
		acc := prog.NewAccum()
		slo, shi := g.InOffset(h), g.InOffset(h+1)
		for s := slo; s < shi; s++ {
			k.Cache.Load(s, &src)
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
		k.Cache.SnapshotWords(0, g.InOffset(hubs), taken)
		for s, word := range taken {
			if word != k.zero {
				t.Fatalf("%s: consumed slot %d holds %#x, want the zero delta", prog.Name(), s, word)
			}
		}
	}
}

// BenchmarkScatterStore times the edge-cache store path alone: every
// vertex of an R-MAT graph scatters its value each iteration, block after
// block as the engine's one scatter worker does. ns/slot-write is the
// number to compare across commits. At scale 14 the 2 MB cache array
// mostly stays in L2; scale 16 is the pr_rmat workload's shape (1M edges,
// 8 MB), where the stores miss.
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
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(writes), "ns/slot-write")
		})
	}
}
