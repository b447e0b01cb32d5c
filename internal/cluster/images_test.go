package cluster

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"graphabcd/internal/bcd"
	"graphabcd/internal/core"
	"graphabcd/internal/gen"
	"graphabcd/internal/graph"
	"graphabcd/internal/telemetry"
)

// TestImagesMatchPerSlotStores checks the per-source images, local and
// remote, against the per-slot stores they replaced. For 2 and 3 nodes
// over an R-MAT graph and a grid, under PageRank, SSSP and CC, each node
// in turn gathers and scatters its vertex range, and its batches are
// installed directly on their receivers. After every such step, every
// in-edge slot must gather — from its destination's owner's image of its
// source — what one store per out-edge of each changed vertex leaves,
// and every block's activation mass must be what those stores' deltas
// sum to; each (vertex, receiver) pair must have been shipped exactly
// once, and the remote writes counted per slot.
func TestImagesMatchPerSlotStores(t *testing.T) {
	rmat, err := gen.RMAT(gen.DefaultRMAT(8, 6, 41))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gen.Grid(12, 13, 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name string
		g    *graph.Graph
	}{{"rmat", rmat}, {"grid", grid}} {
		for _, nodes := range []int{2, 3} {
			name := fmt.Sprintf("%s/%d nodes", g.name, nodes)
			imagesMatchPerSlot(t, name, g.g, bcd.PageRank{}, nodes)
			imagesMatchPerSlot(t, name, g.g, bcd.SSSP{Source: 3}, nodes)
			imagesMatchPerSlot(t, name, g.g, bcd.CC{}, nodes)
		}
	}
}

func imagesMatchPerSlot[V, M any](t *testing.T, name string, g *graph.Graph, prog bcd.Program[V, M], nodes int) {
	t.Helper()
	name += "/" + prog.Name()
	const batchSize = 5 // several flushes and a remainder per receiver
	ns, err := NewNodes(g, prog, Config{Nodes: nodes, BlockSize: 16, WorkersPerNode: 1, BatchSize: batchSize, Transport: &scriptTransport{}}, 0, nodes)
	if err != nil {
		t.Fatal(err)
	}
	s := ns[0].Shared
	nb, ne, words := s.Part.NumBlocks(), int64(g.NumEdges()), s.Values.Words()
	codec, eps := prog.Codec(), s.cfg.Epsilon
	// snapshot fans the images out to the in-edge slots: what each slot
	// gathers, the per-slot cache the images replaced.
	snapshot := func() []uint64 {
		out := make([]uint64, ne*int64(words))
		for x := range g.NumVertices() {
			img := ns[s.Owner[s.Part.BlockOf(uint32(x))].Load()].img
			for slot := g.InOffset(x); slot < g.InOffset(x+1); slot++ {
				u := int64(g.InSrc(slot))
				img.SnapshotWords(u, u+1, out[slot*int64(words):])
			}
		}
		return out
	}
	decode := func(w []uint64) V {
		var v V
		codec.DecodeInto(w, &v)
		return v
	}
	var id uint64
	for round := range 3 {
		for _, sender := range ns {
			// Retire every activation, so each block's priority is the
			// mass of this step alone.
			for _, n := range ns {
				for b := range nb {
					if n.Sched.Claim(b) {
						n.Sched.Done(b)
					}
				}
			}
			vlo, vhi := s.VertexRange(sender.ID)
			batches := make([][]core.Batch, nodes)
			tel := telemetry.New(telemetry.Options{})
			w := s.NewWorker(&tel.Shards(1)[0], sender.ID, sender.Sched, func(to int, b *core.Batch, _ *telemetry.Shard) {
				batches[to] = append(batches[to], core.Batch{Srcs: slices.Clone(b.Srcs), Words: slices.Clone(b.Words)})
				b.Srcs, b.Words = b.Srcs[:0], b.Words[:0]
			})
			w.Out = make([]core.Batch, nodes)
			deltas := make([]float64, vhi-vlo)
			if _, err := s.GatherApply(vlo, vhi, deltas, nil, w); err != nil {
				t.Fatal(err)
			}

			// The per-slot reference: one store of the source's image per
			// out-edge, and each store's delta on the slot's block.
			want := snapshot()
			wantMass := make([]float64, nb)
			pairs := map[[2]int]bool{}
			var remoteSlots int64
			enc := make([]uint64, words)
			for v := vlo; v < vhi; v++ {
				d := deltas[v-vlo]
				if d <= eps {
					continue
				}
				var val V
				s.Values.Load(int64(v), &val)
				codec.Encode(prog.ScatterValue(uint32(v), val, g), enc)
				for i := g.OutOffset(v); i < g.OutOffset(v+1); i++ {
					slot, db := g.OutPos(i), s.Part.BlockOf(g.OutDst(i))
					old := decode(want[slot*int64(words) : (slot+1)*int64(words)])
					copy(want[slot*int64(words):], enc)
					owner := int(s.Owner[db].Load())
					if owner == sender.ID {
						wantMass[db] += d
						continue
					}
					remoteSlots++
					pairs[[2]int{v, owner}] = true
					if dd := prog.Delta(old, decode(enc)); dd > eps {
						wantMass[db] += dd
					}
				}
			}

			s.Scatter(vlo, vhi, deltas, nil, w)
			shipped := map[[2]int]int{}
			for to := range w.Out {
				if len(w.Out[to].Srcs) > 0 {
					batches[to] = append(batches[to], w.Out[to])
				}
				for _, b := range batches[to] {
					for _, u := range b.Srcs {
						shipped[[2]int{int(u), to}]++
					}
					id++
					if !ns[to].install(Envelope{kind: envImages, from: sender.ID, id: id, srcs: b.Srcs, words: b.Words}) {
						t.Fatalf("%s: round %d: node %d refused a batch of node %d", name, round, to, sender.ID)
					}
				}
			}

			if got := snapshot(); !slices.Equal(got, want) {
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: round %d, sender %d: slot word %d is %#x, the per-slot stores leave %#x", name, round, sender.ID, i, got[i], want[i])
					}
				}
			}
			for key, n := range shipped {
				if n != 1 || !pairs[key] {
					t.Fatalf("%s: round %d: vertex %d shipped %d times to node %d, want once iff it feeds a slot there", name, round, key[0], n, key[1])
				}
			}
			if len(shipped) != len(pairs) {
				t.Fatalf("%s: round %d: %d (vertex, receiver) images shipped, want %d", name, round, len(shipped), len(pairs))
			}
			if got := tel.Total(telemetry.CtrMessagesSent); got != remoteSlots {
				t.Fatalf("%s: round %d: counted %d remote slot writes, want %d", name, round, got, remoteSlots)
			}
			for b := range nb {
				got := ns[s.Owner[b].Load()].Sched.Priority(b)
				if math.Abs(got-wantMass[b]) > 1e-12*math.Max(1, math.Abs(wantMass[b])) {
					t.Fatalf("%s: round %d, sender %d: block %d mass %g, the per-slot stores sum to %g", name, round, sender.ID, b, got, wantMass[b])
				}
			}
		}
	}
}
