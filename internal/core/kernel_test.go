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
	k, err := NewKernel[float64, float64](g, bcd.PageRank{}, blockSize, nil, eps, batchSize)
	if err != nil {
		t.Fatal(err)
	}
	nb := k.Part.NumBlocks()
	for b := 1; b < nb; b += 2 {
		k.Owner[b].Store(1)
	}
	if err := k.Init(0, g.NumVertices()); err != nil {
		t.Fatal(err)
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
		k, err := NewKernel(g, prog, 7, nil, eps, math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		nb := k.Part.NumBlocks()
		for b := 1; b < nb && owners == 2; b += 2 {
			k.Owner[b].Store(1)
		}
		if err := k.Init(0, n); err != nil {
			t.Fatal(err)
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
			k, err := NewKernel[float64, float64](g, bcd.PageRank{}, n/256, nil, 1e-9, 0)
			if err != nil {
				b.Fatal(err)
			}
			if err := k.Init(0, n); err != nil {
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
