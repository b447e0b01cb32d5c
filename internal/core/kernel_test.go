package core

import (
	"slices"
	"testing"

	"graphabcd/internal/bcd"
	"graphabcd/internal/sched"
	"graphabcd/internal/telemetry"
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
