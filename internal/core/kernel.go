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
// once: pull-gather a vertex range's in-edges, apply, publish the
// changed vertices' scatter images, add the change to the destination
// blocks' priority. Every runtime is a caller — the async/barrier
// workers and schedule replay pass a claimed block's range to both
// halves, BSP each worker's vertex slice between its barriers,
// cluster.Node both halves back to back — and owns only scheduling and
// delivery. All shared mutable state is accessed atomically; a Kernel is
// safe for concurrent use by any number of Workers.
type Kernel[V, M any] struct {
	G      *graph.Graph
	Prog   bcd.Program[V, M]
	Part   *graph.Partition
	Values *word.Array[V] // vertex values, |V| entries
	// Images holds a state-based program's scatter images, one array of
	// |V| entries per owner this process hosts, indexed by owner id (nil
	// for an owner hosted elsewhere; see Host): entry u is the image of
	// vertex u as that owner last stored it — by its own Scatter for its
	// vertices, on delivery for another owner's. Every in-edge slot of u
	// reads entry u, through the in-edge source ids. nil for an
	// operation-based program.
	Images []*word.Array[V]
	// Slots holds an operation-based program's pending deltas, one per
	// in-edge slot (|E| entries, op.ZeroDelta() encoded when empty):
	// Scatter accumulates into them with atomic read-modify-writes and
	// GatherApply consumes them with atomic swaps to zero. nil for a
	// state-based program.
	Slots *word.Array[V]
	// Edges streams the static in-edge structure: source ids and weights
	// for the gather, source ids for the build.
	Edges   edgestore.Source
	Epsilon float64 // activation threshold
	// Owner maps a block to the node owning its vertex values. A
	// single-node run is the one-owner case: the table is all zeros,
	// every Worker is node 0, and Scatter's batch path never runs.
	Owner     []atomic.Int32
	BatchSize int // per-owner batch length, in images, that triggers the flush hook
	// op is non-nil when Prog is operation-based (bcd.OpBased), zero its
	// encoded op.ZeroDelta().
	op   bcd.OpBased[V, M]
	zero uint64
}

// gatherRun is how many in-edges GatherApply copies out of the cache and
// hands to one Program.Gather call; a longer in-edge run takes several.
const gatherRun = 128

// NewKernel partitions g into blocks of blockSize vertices and builds
// the kernel's arrays with vertices [vlo, vhi) already at the program's
// initial state — the range its caller runs: their values, and every
// vertex's scatter image (a state-based program's owner 0 image array)
// or the range's in-edge slots (an operation-based program's pending
// deltas). An empty range leaves everything decoding from zero words. A
// nil edges streams zero-copy from g. An edge-source error during the
// build is returned.
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
	values, img, err := k.build(vlo, vhi)
	if err != nil {
		return nil, err
	}
	k.Values = word.Adopt(codec, values)
	if k.op != nil {
		k.Slots = word.Adopt(codec, img)
	} else {
		k.Images = []*word.Array[V]{word.Adopt(codec, img)}
	}
	return k, nil
}

// build encodes the initial words of the value array with vertices
// [vlo, vhi) set, and those of the image array: Program.InitEdge is a
// function of the source alone, so it is encoded once per vertex of the
// graph. An operation-based program's in-edge slots of the range then
// each copy their source's image. Every write goes to fresh slices that
// no other goroutine can reach until NewKernel wraps them.
func (k *Kernel[V, M]) build(vlo, vhi int) (values, img []uint64, err error) {
	g, prog, codec := k.G, k.Prog, k.Prog.Codec()
	w := codec.Words()
	values, img = make([]uint64, g.NumVertices()*w), make([]uint64, g.NumVertices()*w)
	if vlo < vhi {
		_ = eachSlice(0, g.NumVertices(), func(lo, hi int) error { // encoding cannot fail
			for v := lo; v < hi; v++ {
				codec.Encode(prog.InitEdge(uint32(v), g), img[v*w:(v+1)*w])
				if v >= vlo && v < vhi {
					codec.Encode(prog.Init(uint32(v), g), values[v*w:(v+1)*w])
				}
			}
			return nil
		})
	}
	if k.op == nil {
		return values, img, nil
	}
	slots := make([]uint64, g.NumEdges()*w)
	err = k.eachInEdgeRun(vlo, vhi, func(slo int64, srcs []uint32) {
		for i, src := range srcs {
			dst, from := slots[(slo+int64(i))*int64(w):], img[int(src)*w:]
			for j := range w {
				dst[j] = from[j]
			}
		}
	})
	return values, slots, err
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
// Words[i*words:(i+1)*words], for the receiver's image of it.
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

	img      *word.Array[V] // the node's scatter images; nil for an operation-based program
	acc      M
	old, val V
	buf, enc []uint64  // word-array transfer buffer; encoded scatter value
	run      []uint64  // one gatherRun of raw image or slot words
	mass     []float64 // per-block mass of the scatter in progress
	touched  []int     // blocks with non-zero mass
	tick     uint64    // counts scattering vertices: Batch.mark dedups per owner
}

// NewWorker builds a worker of node self, which gathers from and
// scatters into self's image array. flush must empty the batch it is
// handed; it may be nil when self owns every block.
func (k *Kernel[V, M]) NewWorker(sh *telemetry.Shard, self int, st *sched.State, flush func(to int, b *Batch, sh *telemetry.Shard)) *Worker[V, M] {
	words := k.Values.Words()
	var img *word.Array[V]
	if k.op == nil {
		img = k.Images[self]
	}
	return &Worker[V, M]{
		Sh: sh, self: self, st: st, flush: flush, img: img,
		acc:     k.Prog.NewAccum(),
		buf:     make([]uint64, max(words, 2)), // word.Array.RMW needs two transfer slots
		enc:     make([]uint64, words),
		run:     make([]uint64, gatherRun*words),
		mass:    make([]float64, k.Part.NumBlocks()),
		touched: make([]int, 0, 64),
	}
}

// Host gives each owner of [lo, hi) — the owners whose blocks this
// process runs — an image array of its own, and drops every other
// owner's. An owner the kernel hosts already keeps its array; a new one
// starts as a copy of owner 0's, the images the build encoded, so a
// cluster calls Host once before anything runs, and again only to
// host fewer owners (a restart). In-process owners share the values but
// never each other's images: an owner sees another's vertex change only
// when the batch carrying it is delivered. A no-op for an
// operation-based program.
func (k *Kernel[V, M]) Host(lo, hi int) {
	if k.op != nil {
		return
	}
	imgs := make([]*word.Array[V], hi)
	for id := lo; id < hi; id++ {
		if id < len(k.Images) && k.Images[id] != nil {
			imgs[id] = k.Images[id]
			continue
		}
		built := k.Images[0]
		words := make([]uint64, built.Len()*built.Words())
		built.SnapshotWords(0, int64(built.Len()), words)
		imgs[id] = word.Adopt(k.Prog.Codec(), words)
	}
	k.Images = imgs
}

// RebuildInEdges re-derives what the in-edges of vertices [vlo, vhi)
// gather from the current values: every hosted owner's image of every
// vertex, the image Scatter stores — O(|V|) per owner, each image
// derived once, in parallel slices, and stored with atomic stores. This
// is what lets a checkpoint store only the |V| values and what
// reconstructs a batch lost in flight (before a cluster restart, or
// across a fuzzy checkpoint). Nothing else may touch the images
// meanwhile. An operation-based program's slots hold pending deltas the
// values cannot re-derive, so it is refused.
func (k *Kernel[V, M]) RebuildInEdges(vlo, vhi int) error {
	if vlo == vhi {
		return nil
	}
	if k.op != nil {
		return fmt.Errorf("core: operation-based program %q keeps in-flight deltas on its in-edges; the values cannot rebuild them", k.Prog.Name())
	}
	g, prog, codec := k.G, k.Prog, k.Prog.Codec()
	w := codec.Words()
	return eachSlice(0, g.NumVertices(), func(lo, hi int) error { // deriving cannot fail
		img, buf := make([]uint64, (hi-lo)*w), make([]uint64, w)
		var val V
		for v := lo; v < hi; v++ {
			k.Values.LoadBuf(int64(v), &val, buf)
			codec.Encode(prog.ScatterValue(uint32(v), val, g), img[(v-lo)*w:(v-lo+1)*w])
		}
		for _, a := range k.Images {
			if a != nil {
				a.StoreWords(int64(lo), img)
			}
		}
		return nil
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
// the Sec. IV-C flow): stream the range's in-edges sequentially — one
// contiguous edge-source read of source ids and weights, by the
// pull-push layout — filling each vertex's in-edge run gatherRun edges
// at a time with the worker's images of their sources (or, if
// operation-based, the slots' pending deltas, swapped to the zero
// delta) and folding each run with one Program.Gather call, store the
// new values, and leave each vertex's update magnitude in deltas[v-vlo]
// (and an operation-based program's out-delta in dvals[v-vlo]) for
// Scatter. It returns the in-edges streamed; on an edge-source error
// nothing is updated and deltas is zeroed.
//
//abcd:hotpath
func (k *Kernel[V, M]) GatherApply(vlo, vhi int, deltas []float64, dvals []V, w *Worker[V, M]) (int64, error) {
	if vlo == vhi {
		return 0, nil
	}
	g, prog := k.G, k.Prog
	blo, bhi := g.InOffset(vlo), g.InOffset(vhi)
	srcs, weights, release, err := k.Edges.Block(vlo, vhi, blo, bhi)
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
				n = k.Slots.TakeWords(lo, hi, k.zero, w.run)
			} else {
				n = w.img.GatherWords(srcs[lo-blo:hi-blo], w.run)
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
			// its out-edges will read. For PageRank that is
			// delta/outdeg: using the raw vertex delta would overweight
			// hub sources by their out-degree and misguide the priority
			// rule.
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
// for vertices [vlo, vhi) (steps 9-11). A state-based vertex that moved
// by more than epsilon stores its scatter image once, into the worker's
// image array, where every in-edge it feeds on the worker's node reads
// it; one that moved less keeps its old image. Its out-edges are then
// walked once: the change is summed per destination block the worker's
// node owns and each touched block activated once with its mass, and a
// vertex with out-edges into another owner's blocks is appended to that
// owner's batch in w.Out once, as its source id and image — the
// receiver stores it in its own image array and activates on arrival —
// a batch being handed to the flush hook every BatchSize images. An
// operation-based program instead accumulates its out-delta into each
// owned out-edge slot with an atomic read-modify-write, in the same
// walk. Scatter returns the out-edges of the vertices it scattered,
// local and remote: the slot writes the paper's in-edge copy would
// make, which the accelerator model charges.
//
// One image per vertex is this host's form of the paper's technique 2,
// which copies the value onto every out-edge slot so that an FPGA
// gathers from DRAM sequentially. On a CPU that copy was a pr_rmat job's
// largest cost: 5.6M random stores, ~25 ns of scatter time each. The
// gather's indexed loads from a |V|-entry array cost far less than that
// saved (EXPERIMENTS.md, "One image per vertex").
//
//abcd:hotpath
func (k *Kernel[V, M]) Scatter(vlo, vhi int, deltas []float64, dvals []V, w *Worker[V, M]) int64 {
	g, part := k.G, k.Part
	// No batches to build: the worker's node owns every block (every
	// engine run), so no destination needs its owner looked up.
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
		olo, ohi := g.OutOffset(v), g.OutOffset(v+1)
		dsts := g.OutDstRange(olo, ohi)
		writes += ohi - olo
		var slots []int64
		var dval V
		if k.op != nil {
			dval = dvals[v-vlo]
			slots = g.OutPosRange(olo, ohi)
			// Take the run's lines for writing up front (PREFETCHW on
			// amd64), so the read-modify-writes' misses overlap.
			k.Slots.Prefetch(slots)
		} else {
			k.Values.LoadBuf(int64(v), &w.val, w.buf)
			k.Prog.Codec().Encode(k.Prog.ScatterValue(uint32(v), w.val, g), w.enc)
			w.img.StoreWords(int64(v), w.enc)
		}
		w.tick++
		for i, dst := range dsts {
			db := part.BlockOf(dst)
			if !oneOwner {
				if owner := int(k.Owner[db].Load()); owner != w.self {
					remote++
					if p := &w.Out[owner]; p.mark != w.tick {
						p.mark = w.tick
						p.Srcs = append(p.Srcs, uint32(v))  //abcdlint:ignore hotpath -- amortized: flush resets the batch to [:0], capacity is retained
						p.Words = append(p.Words, w.enc...) //abcdlint:ignore hotpath -- amortized: flush resets the batch to [:0], capacity is retained
						if len(p.Srcs) >= k.BatchSize {
							w.flush(owner, p, w.Sh)
						}
					}
					continue
				}
			}
			if k.op != nil {
				k.Slots.RMW(slots[i], w.buf, &w.val, func(cur V) V {
					return k.op.AccumulateDelta(cur, dval)
				})
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
