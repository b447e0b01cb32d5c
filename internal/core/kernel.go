package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"graphabcd/internal/bcd"
	"graphabcd/internal/edgestore"
	"graphabcd/internal/graph"
	"graphabcd/internal/sched"
	"graphabcd/internal/telemetry"
	"graphabcd/internal/word"
)

// Kernel is GraphABCD's block update rule (paper Sec. III–IV), written
// once: pull-gather a vertex range's in-edge cache, apply, push the
// scatter image onto out-edge slots, add the change to the destination
// blocks' priority. Every runtime is a caller — the async/barrier
// pipeline and schedule replay pass a block's range on either side of
// the task queue, BSP each worker's vertex slice between its barriers,
// cluster.Node both halves back to back — and owns only scheduling and
// delivery. All shared mutable state is accessed atomically; a Kernel is
// safe for concurrent use by any number of Workers.
type Kernel[V, M any] struct {
	G      *graph.Graph
	Prog   bcd.Program[V, M]
	Part   *graph.Partition
	Values *word.Array[V] // vertex values, |V| entries
	Cache  *word.Array[V] // cached source values per in-edge slot, |E| entries
	// Edges streams the static in-edge structure: weights for the gather,
	// source ids for the build and RebuildInEdges.
	Edges   edgestore.Source
	Epsilon float64 // activation threshold
	// Owner maps a block to the node owning its vertex values and in-edge
	// slots. A single-node run is the one-owner case: the table is all
	// zeros, every Worker is node 0, and Scatter's batch path never runs.
	Owner     []atomic.Int32
	BatchSize int // per-owner batch length, in images, that triggers the flush hook
	// op is non-nil when Prog is operation-based (bcd.OpBased): edge slots
	// then hold pending deltas that Scatter accumulates with atomic
	// read-modify-writes and GatherApply consumes with atomic swaps to
	// zero, op.ZeroDelta() encoded.
	op   bcd.OpBased[V, M]
	zero uint64
}

// gatherRun is how many in-edges GatherApply copies out of the cache and
// hands to one Program.Gather call; a longer in-edge run takes several.
const gatherRun = 128

// NewKernel partitions g into blocks of blockSize vertices and builds
// the value and cache arrays with vertices [vlo, vhi) and their in-edge
// slots already at the program's initial state — the range its caller
// runs; everything else decodes from zero words. A nil edges streams
// zero-copy from g. An edge-source error during the build is returned.
func NewKernel[V, M any](g *graph.Graph, prog bcd.Program[V, M], blockSize int, edges edgestore.Source, epsilon float64, batchSize, vlo, vhi int) (*Kernel[V, M], error) {
	part, err := graph.NewPartition(g, blockSize)
	if err != nil {
		return nil, err
	}
	if edges == nil {
		edges = edgestore.InMemory(g)
	}
	codec := prog.Codec()
	k := &Kernel[V, M]{
		G: g, Prog: prog, Part: part,
		Edges:     edges,
		Epsilon:   epsilon,
		Owner:     make([]atomic.Int32, part.NumBlocks()),
		BatchSize: batchSize,
	}
	if op, ok := prog.(bcd.OpBased[V, M]); ok {
		if codec.Words() != 1 {
			return nil, fmt.Errorf("core: operation-based program %q needs a single-word codec (got %d words)",
				prog.Name(), codec.Words())
		}
		k.op = op
		enc := make([]uint64, 1)
		codec.Encode(op.ZeroDelta(), enc)
		k.zero = enc[0]
	}
	values, cache, err := k.build(vlo, vhi)
	if err != nil {
		return nil, err
	}
	k.Values, k.Cache = word.Adopt(codec, values), word.Adopt(codec, cache)
	return k, nil
}

// build encodes the initial words of the value and cache arrays with
// vertices [vlo, vhi) and their in-edge slots set. Program.InitEdge is a
// function of the source alone, so it is encoded once per vertex of the
// graph, and each slot of the range copies its source's image. Every
// write goes to fresh slices that no other goroutine can reach until
// NewKernel wraps them.
func (k *Kernel[V, M]) build(vlo, vhi int) (values, cache []uint64, err error) {
	g, prog, codec := k.G, k.Prog, k.Prog.Codec()
	w := codec.Words()
	values, cache = make([]uint64, g.NumVertices()*w), make([]uint64, g.NumEdges()*w)
	if vlo == vhi {
		return values, cache, nil
	}
	img := make([]uint64, len(values))
	_ = eachSlice(0, g.NumVertices(), func(lo, hi int) error { // encoding cannot fail
		for v := lo; v < hi; v++ {
			codec.Encode(prog.InitEdge(uint32(v), g), img[v*w:(v+1)*w])
			if v >= vlo && v < vhi {
				codec.Encode(prog.Init(uint32(v), g), values[v*w:(v+1)*w])
			}
		}
		return nil
	})
	err = k.eachInEdgeRun(vlo, vhi, func(slo int64, srcs []uint32) {
		for i, src := range srcs {
			dst, from := cache[(slo+int64(i))*int64(w):], img[int(src)*w:]
			for j := range w {
				dst[j] = from[j]
			}
		}
	})
	return values, cache, err
}

// eachInEdgeRun reads the source ids of the in-edge slots of vertices
// [vlo, vhi) from the edge source in parallel slices and hands each
// slice's run to fill, with the slot the run starts at.
func (k *Kernel[V, M]) eachInEdgeRun(vlo, vhi int, fill func(slo int64, srcs []uint32)) error {
	return eachSlice(vlo, vhi, func(lo, hi int) error {
		if lo == hi {
			return nil
		}
		slo, shi := k.G.InOffset(lo), k.G.InOffset(hi)
		srcs, _, release, err := k.Edges.Block(lo, hi, slo, shi)
		if err != nil {
			return err
		}
		defer release()
		fill(slo, srcs)
		return nil
	})
}

// eachSlice runs fn over [lo, hi) cut into GOMAXPROCS contiguous slices,
// in parallel, and returns their errors joined.
func eachSlice(lo, hi int, fn func(lo, hi int) error) error {
	k := runtime.GOMAXPROCS(0)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for w := range k {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(lo+w*(hi-lo)/k, lo+(w+1)*(hi-lo)/k)
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Batch is a building buffer of state-based updates for one other node:
// entry i is the scatter image of source vertex Srcs[i], encoded as
// Words[i*words:(i+1)*words], for every in-edge slot it feeds there.
type Batch struct {
	Srcs  []uint32
	Words []uint64

	mark uint64 // the Worker.tick of the last vertex appended
}

// Worker is one goroutine's place in a run: the telemetry shard its work
// counters land in, the node it works for (id in the owner table, the
// scheduler state its owned blocks activate in, the hook that takes a
// full batch for another owner), and the scratch that keeps the hot
// loops allocation-free.
type Worker[V, M any] struct {
	Sh *telemetry.Shard
	// Out holds one building batch per destination node, sized by the
	// caller; Scatter leaves batches shorter than BatchSize in it. nil in
	// a single-owner run.
	Out []Batch

	self  int
	st    *sched.State
	flush func(to int, b *Batch, sh *telemetry.Shard)

	acc      M
	old, val V
	buf, enc []uint64  // word-array transfer buffer; encoded scatter value
	run      []uint64  // one gatherRun of raw cache words
	mass     []float64 // per-block mass of the scatter in progress
	touched  []int     // blocks with non-zero mass
	tick     uint64    // counts scattering vertices: Batch.mark dedups per owner
}

// NewWorker builds a worker of node self. flush must empty the batch it
// is handed; it may be nil when self owns every block.
func (k *Kernel[V, M]) NewWorker(sh *telemetry.Shard, self int, st *sched.State, flush func(to int, b *Batch, sh *telemetry.Shard)) *Worker[V, M] {
	words := k.Values.Words()
	return &Worker[V, M]{
		Sh: sh, self: self, st: st, flush: flush,
		acc:     k.Prog.NewAccum(),
		buf:     make([]uint64, max(words, 2)), // word.Array.RMW needs two transfer slots
		enc:     make([]uint64, words),
		run:     make([]uint64, gatherRun*words),
		mass:    make([]float64, k.Part.NumBlocks()),
		touched: make([]int, 0, 64),
	}
}

// RebuildInEdges re-derives the in-edge cache slots of vertices
// [vlo, vhi) from the current values: slot s caches the scatter image of
// its source vertex, whoever owns it — the same idempotent write Scatter
// performs. Each vertex's image is derived once, then copied into its
// slots with atomic stores, in parallel slices. This is what lets a
// checkpoint store only the |V| values and what reconstructs a batch lost
// in flight (before a cluster restart, or across a fuzzy checkpoint).
// Nothing else may touch the range meanwhile.
func (k *Kernel[V, M]) RebuildInEdges(vlo, vhi int) error {
	if vlo == vhi {
		return nil
	}
	g, prog, codec := k.G, k.Prog, k.Prog.Codec()
	w := codec.Words()
	img := make([]uint64, g.NumVertices()*w)
	_ = eachSlice(0, g.NumVertices(), func(lo, hi int) error { // deriving cannot fail
		buf := make([]uint64, w)
		var val V
		for v := lo; v < hi; v++ {
			k.Values.LoadBuf(int64(v), &val, buf)
			codec.Encode(prog.ScatterValue(uint32(v), val, g), img[v*w:(v+1)*w])
		}
		return nil
	})
	return k.eachInEdgeRun(vlo, vhi, func(slo int64, srcs []uint32) {
		for i, src := range srcs {
			k.Cache.StoreWords(slo+int64(i), img[int(src)*w:(int(src)+1)*w])
		}
	})
}

// CollectValues decodes the whole value array; exact once every writer
// is quiescent.
func (k *Kernel[V, M]) CollectValues() []V {
	out := make([]V, k.G.NumVertices())
	buf := make([]uint64, k.Values.Words())
	for v := range out {
		k.Values.LoadBuf(int64(v), &out[v], buf)
	}
	return out
}

// GatherApply runs GATHER-APPLY over vertices [vlo, vhi) (steps 4-6 of
// the Sec. IV-C flow): stream the range's in-edge cache sequentially —
// one contiguous edge-source read, by the pull-push layout — copying each
// vertex's in-edge run out gatherRun slots at a time (swapped to the zero
// delta if operation-based) and folding each copy with one Program.Gather
// call, store the new values, and leave each vertex's update magnitude in
// deltas[v-vlo] (and an operation-based program's out-delta in
// dvals[v-vlo]) for Scatter. It returns the in-edges streamed; on an edge-source error
// nothing is updated and deltas is zeroed.
//
//abcd:hotpath
func (k *Kernel[V, M]) GatherApply(vlo, vhi int, deltas []float64, dvals []V, w *Worker[V, M]) (int64, error) {
	if vlo == vhi {
		return 0, nil
	}
	g, prog := k.G, k.Prog
	blo, bhi := g.InOffset(vlo), g.InOffset(vhi)
	_, weights, release, err := k.Edges.Block(vlo, vhi, blo, bhi)
	if err != nil {
		clear(deltas)
		return 0, err
	}
	defer release()
	for v := vlo; v < vhi; v++ {
		k.Values.LoadBuf(int64(v), &w.old, w.buf)
		prog.ResetAccum(&w.acc)
		slo, shi := g.InOffset(v), g.InOffset(v+1)
		for lo := slo; lo < shi; lo += gatherRun {
			hi := min(lo+gatherRun, shi)
			var n int
			if k.op != nil {
				// Consume the pending deltas: swap the slots to the zero
				// delta so concurrent scatters can keep accumulating.
				n = k.Cache.TakeWords(lo, hi, k.zero, w.run)
			} else {
				n = k.Cache.SnapshotWords(lo, hi, w.run)
			}
			prog.Gather(&w.acc, w.old, weights[lo-blo:hi-blo], w.run[:n])
		}
		newVal := prog.Apply(uint32(v), w.old, &w.acc, shi-slo, g)
		if prog.Delta(w.old, newVal) == 0 {
			deltas[v-vlo] = 0
			continue
		}
		if k.op != nil {
			dvals[v-vlo] = k.op.OutDelta(uint32(v), w.old, newVal, g)
			deltas[v-vlo] = prog.Delta(w.old, newVal)
		} else {
			// The gradient mass driving activation and Gauss-Southwell
			// priority is the change of the *scatter image* — the value
			// that will actually be written onto out-edges. For PageRank
			// that is delta/outdeg: using the raw vertex delta would
			// overweight hub sources by their out-degree and misguide
			// the priority rule.
			deltas[v-vlo] = prog.Delta(
				prog.ScatterValue(uint32(v), w.old, g),
				prog.ScatterValue(uint32(v), newVal, g))
		}
		k.Values.StoreBuf(int64(v), newVal, w.buf)
	}
	w.Sh.Add(telemetry.CtrVertexUpdates, int64(vhi-vlo))
	w.Sh.Add(telemetry.CtrEdgesTraversed, bhi-blo)
	return bhi - blo, nil
}

// Scatter publishes the updates GatherApply left in deltas (and dvals)
// for vertices [vlo, vhi) (steps 9-11). Out-edge slots of blocks the
// worker's node owns are stored directly (random but disjoint writes),
// the change summed per destination block and each touched block
// activated once with its mass. A vertex with out-edges into another
// owner's blocks is appended to that owner's batch in w.Out once, as
// its source id and image — the receiver stores the image on every slot
// the vertex feeds there and activates on arrival — and a batch is
// handed to the flush hook every BatchSize images. It returns the number
// of slots written, local and remote.
//
// The store path: a vertex's image is the same on all its out-edges, so
// it is encoded once, and its out-edge run is walked twice. Pass one
// prefetches the owned destination slots for writing (PREFETCHW on
// amd64), so the run's ownership misses are in flight together: the
// whole run in one call when the worker's node owns every block (w.Out
// is nil), which also spares pass two its per-edge owner load; with
// other owners, pass one also builds their batch entries. Pass two does
// the atomic stores, each an XCHG on amd64, a full fence. A plain load
// in pass one would fetch each line shared and be an earlier load every
// XCHG waits for, so each store would still stall on its line's upgrade;
// PREFETCHW is no load, nothing waits for it, and the line arrives
// writable. On a 2-vCPU x86-64 Xeon guest, a pr_rmat job's scatter time
// per slot write went from 60 to 43 ns (EXPERIMENTS.md, "Kernel per-edge
// cost").
//
//abcd:hotpath
func (k *Kernel[V, M]) Scatter(vlo, vhi int, deltas []float64, dvals []V, w *Worker[V, M]) int64 {
	g, part := k.G, k.Part
	// No batches to build: the worker's node owns every block (every
	// engine run), so no slot needs its owner looked up.
	oneOwner := w.Out == nil
	var writes, remote int64
	for v := vlo; v < vhi; v++ {
		d := deltas[v-vlo]
		// State-based updates are self-healing, so sub-epsilon changes
		// can be dropped entirely. Operation-based deltas are mass that
		// would leak if dropped: scatter every nonzero change and use
		// epsilon only to gate activation.
		if d <= k.Epsilon && (k.op == nil || d == 0) {
			continue
		}
		activate := d > k.Epsilon
		var dval V
		if k.op != nil {
			dval = dvals[v-vlo]
		} else {
			k.Values.LoadBuf(int64(v), &w.val, w.buf)
			k.Prog.Codec().Encode(k.Prog.ScatterValue(uint32(v), w.val, g), w.enc)
		}
		olo, ohi := g.OutOffset(v), g.OutOffset(v+1)
		slots, dsts := g.OutPosRange(olo, ohi), g.OutDstRange(olo, ohi)
		dsts = dsts[:len(slots)]
		writes += ohi - olo
		if oneOwner {
			k.Cache.Prefetch(slots)
		} else {
			w.tick++
			for i, dst := range dsts {
				owner := int(k.Owner[part.BlockOf(dst)].Load())
				if owner == w.self {
					k.Cache.Prefetch(slots[i : i+1])
					continue
				}
				remote++
				if p := &w.Out[owner]; p.mark != w.tick {
					p.mark = w.tick
					p.Srcs = append(p.Srcs, uint32(v))  //abcdlint:ignore hotpath -- amortized: flush resets the batch to [:0], capacity is retained
					p.Words = append(p.Words, w.enc...) //abcdlint:ignore hotpath -- amortized: flush resets the batch to [:0], capacity is retained
					if len(p.Srcs) >= k.BatchSize {
						w.flush(owner, p, w.Sh)
					}
				}
			}
		}
		for i, slot := range slots {
			db := part.BlockOf(dsts[i])
			if !oneOwner && int(k.Owner[db].Load()) != w.self {
				continue
			}
			if k.op != nil {
				k.Cache.RMW(slot, w.buf, &w.val, func(cur V) V {
					return k.op.AccumulateDelta(cur, dval)
				})
			} else {
				k.Cache.StoreWords(slot, w.enc)
			}
			if activate {
				if w.mass[db] == 0 {
					w.touched = append(w.touched, db) //abcdlint:ignore hotpath -- amortized: per-worker buffer, reset to [:0] below with capacity retained
				}
				w.mass[db] += d
			}
		}
	}
	// Step 11: update the owned destination blocks' active-list entries
	// and their pending gradient mass (the Sec. IV-B priority estimate).
	for _, tb := range w.touched {
		w.st.Activate(tb, w.mass[tb])
		w.mass[tb] = 0
	}
	w.touched = w.touched[:0]
	w.Sh.Add(telemetry.CtrScatterWrites, writes)
	w.Sh.Add(telemetry.CtrLocalWrites, writes-remote)
	if remote > 0 {
		w.Sh.Add(telemetry.CtrMessagesSent, remote)
	}
	return writes
}
