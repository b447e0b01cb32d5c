package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"graphabcd/internal/checkpoint"
	"graphabcd/internal/obslog"
	"graphabcd/internal/sched"
	"graphabcd/internal/telemetry"
)

// Checkpoints (DESIGN.md §12). A checkpoint epoch is one state file, a
// shard, per owner of the run's vertex values: the single-process engine
// is node 0 of 1, a -listen/-join node is node i of N. Every runtime
// captures, checks and restores its shard through one Share. The capture
// is fuzzy — workers keep running — and asynchronous BCD's convergence
// analysis is what licenses that: a snapshot whose words were written at
// slightly different moments is just another bounded-staleness iterate,
// and resuming from it converges to the same fixed point.

// Layout is a checkpointed run's shape: the identity its manifests carry,
// and how its blocks and vertices split among its owners.
type Layout struct {
	ID        checkpoint.Identity
	blockSize int
}

// NewLayout describes a run of program over a graph (by digest) of n
// vertices, cut into numBlocks blocks of blockSize vertices holding
// words-wide values, and split among nodes owners. It is the one place a
// checkpoint.Identity is built.
func NewLayout(program, digest string, n, numBlocks, blockSize, words, nodes int) Layout {
	return Layout{
		ID: checkpoint.Identity{
			Program: program, GraphDigest: digest,
			NumVertices: int64(n), NumBlocks: int64(numBlocks),
			Words: words, Nodes: nodes,
		},
		blockSize: blockSize,
	}
}

// BlockRange returns the contiguous block span [lo, hi) node i of nodes
// owns out of numBlocks: the static split of every cluster run, and of
// each in-process generation after a kill.
func BlockRange(numBlocks, nodes, i int) (lo, hi int) {
	return i * numBlocks / nodes, (i + 1) * numBlocks / nodes
}

// owner returns node's part of the run as a shard header without arrays:
// its BlockRange and those blocks' vertices.
func (l Layout) owner(node int) checkpoint.State {
	blo, bhi := BlockRange(int(l.ID.NumBlocks), l.ID.Nodes, node)
	var vlo, vhi int
	if blo < bhi {
		vlo, vhi = blo*l.blockSize, min(bhi*l.blockSize, int(l.ID.NumVertices))
	}
	return checkpoint.State{
		NumVertices: l.ID.NumVertices, NumBlocks: l.ID.NumBlocks, Words: l.ID.Words,
		Node: node, Nodes: l.ID.Nodes,
		VertexLo: int64(vlo), VertexHi: int64(vhi),
		BlockLo: int64(blo), BlockHi: int64(bhi),
	}
}

// Open resolves resume (a run id, or "latest") to its last committed
// epoch in s, refuses a manifest written under another run shape, and
// decodes every owner's shard of that epoch. A shard is refused unless
// its node, dimensions and vertex and block spans are its owner's; its
// slot stamps and sequence, which a file of an older commit may carry,
// are never read.
func (l Layout) Open(s checkpoint.Store, resume string) (*checkpoint.Manifest, []*checkpoint.State, error) {
	m, err := checkpoint.Lookup(s, resume)
	if err != nil {
		return nil, nil, err
	}
	if err := l.ID.Check(m); err != nil {
		return nil, nil, fmt.Errorf("core: resume: %w", err)
	}
	shards := make([]*checkpoint.State, m.Nodes)
	for node := range shards {
		rc, err := s.ReadState(m.RunID, m.Epoch, node)
		if err != nil {
			return nil, nil, err
		}
		st, err := checkpoint.Decode(rc)
		_ = rc.Close()
		if err == nil {
			err = l.check(st, node)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("core: resume %s epoch %d node %d: %w", m.RunID, m.Epoch, node, err)
		}
		shards[node] = st
	}
	return m, shards, nil
}

// check refuses a decoded shard that is not node's part of the run.
func (l Layout) check(st *checkpoint.State, node int) error {
	want := l.owner(node)
	switch {
	case st.Node != want.Node || st.Nodes != want.Nodes:
		return fmt.Errorf("state file claims node %d/%d", st.Node, st.Nodes)
	case st.NumVertices != want.NumVertices || st.NumBlocks != want.NumBlocks || st.Words != want.Words:
		return fmt.Errorf("state shape %dx%dx%d, this run is %dx%dx%d (vertices x blocks x words)",
			st.NumVertices, st.NumBlocks, st.Words, want.NumVertices, want.NumBlocks, want.Words)
	case st.VertexLo != want.VertexLo || st.VertexHi != want.VertexHi:
		return fmt.Errorf("vertex range [%d,%d), want [%d,%d)", st.VertexLo, st.VertexHi, want.VertexLo, want.VertexHi)
	case st.BlockLo != want.BlockLo || st.BlockHi != want.BlockHi:
		return fmt.Errorf("block range [%d,%d), want [%d,%d)", st.BlockLo, st.BlockHi, want.BlockLo, want.BlockHi)
	}
	return nil
}

// Share is one owner's part of a checkpointed run: it captures the owned
// span into the store and restores the whole iterate from an opened
// epoch. The run's one committer commits an epoch's manifest once every
// owner's shard of it is durable.
type Share[V, M any] struct {
	Layout
	Store checkpoint.Store
	RunID string
	Epoch uint64 // the last epoch this owner captured or resumed from

	k   *Kernel[V, M]
	st  *sched.State
	tel *telemetry.Registry
	sh  *telemetry.Shard // capture cost and restored progress counters
	// abandon, when non-nil, is asked once the shard is encoded: true
	// drops it before anything reaches the store's durable write, and
	// Capture returns errAbandoned.
	abandon func() bool
	// buf is the owner's shard header and capture buffers and enc its
	// encoder's write buffers, allocated once: a checkpoint must not grow
	// the run's allocation footprint every epoch.
	buf checkpoint.State
	enc checkpoint.Encoder
}

// NewShare builds node's share of a run of program over k split among
// nodes owners, whose blocks activate in st and whose capture cost and
// restored counters land in sh.
func NewShare[V, M any](k *Kernel[V, M], program string, node, nodes int, st *sched.State, tel *telemetry.Registry, sh *telemetry.Shard) *Share[V, M] {
	l := NewLayout(program, checkpoint.DigestGraph(k.G), k.G.NumVertices(), k.Part.NumBlocks(), k.Part.BlockSize(),
		k.Values.Words(), nodes)
	buf := l.owner(node)
	buf.Values = make([]uint64, (buf.VertexHi-buf.VertexLo)*int64(buf.Words))
	buf.Priority = make([]uint64, buf.BlockHi-buf.BlockLo)
	buf.Active = make([]byte, buf.BlockHi-buf.BlockLo)
	return &Share[V, M]{Layout: l, k: k, st: st, tel: tel, sh: sh, buf: buf}
}

// Capture writes this owner's shard of epoch: owned values, owned block
// priorities and active flags, and progress counters — all read with the
// same atomics the workers use, while they keep running.
func (s *Share[V, M]) Capture(epoch uint64) error {
	start := s.tel.Stamp()
	st := &s.buf
	s.k.Values.SnapshotWords(st.VertexLo, st.VertexHi, st.Values)
	s.st.SnapshotBlocks(int(st.BlockLo), int(st.BlockHi), st.Priority, st.Active)
	st.Counters.VertexUpdates = s.tel.Total(telemetry.CtrVertexUpdates)
	st.Counters.BlockUpdates = s.tel.Total(telemetry.CtrBlockUpdates)
	st.Counters.EdgesTraversed = s.tel.Total(telemetry.CtrEdgesTraversed)
	var written int64
	if err := s.Store.WriteState(s.RunID, epoch, st.Node, func(w io.Writer) (err error) {
		written, err = s.enc.EncodeState(w, st)
		if err == nil && s.abandon != nil && s.abandon() {
			err = errAbandoned
		}
		return err
	}); err != nil {
		return err
	}
	s.sh.Add(telemetry.CtrCkptEpochs, 1)
	s.sh.Add(telemetry.CtrCkptBytes, written)
	s.sh.Observe(telemetry.StageCkpt, s.tel.Stamp()-start)
	s.Epoch = epoch
	return nil
}

// Commit publishes epoch's manifest: a crash before it leaves the
// previous committed epoch in effect.
func (s *Share[V, M]) Commit(epoch uint64) error {
	if err := s.Store.Commit(s.ID.Manifest(s.RunID, epoch)); err != nil {
		return err
	}
	obslog.L().Info("checkpoint epoch committed",
		"event", "ckpt.commit", "runID", s.RunID, "epoch", epoch, "nodes", s.ID.Nodes)
	return nil
}

// Restore seeds this owner from an epoch Open returned, before anything
// runs on it. Every shard contributes its owned values — together the
// whole iterate; this owner's own shard its progress counters (so Stats
// and an epoch budget span the logical run). The scatter images are never
// checkpointed: they are rebuilt from the restored values, which also
// reconstructs any batch a fuzzy capture lost in flight, so no write
// stamp or envelope sequence carries over either. Every owned block is
// then activated with its restored priority mass, even one the capture
// saw inactive: an activation racing the capture may be missing from it,
// and one redundant sweep of a self-healing state-based program is cheap
// insurance against a silently premature fixed point.
func (s *Share[V, M]) Restore(m *checkpoint.Manifest, shards []*checkpoint.State) error {
	for _, st := range shards {
		s.k.Values.StoreWords(st.VertexLo, st.Values)
	}
	own := shards[s.buf.Node]
	s.sh.Add(telemetry.CtrVertexUpdates, own.Counters.VertexUpdates)
	s.sh.Add(telemetry.CtrBlockUpdates, own.Counters.BlockUpdates)
	s.sh.Add(telemetry.CtrEdgesTraversed, own.Counters.EdgesTraversed)
	if err := s.k.RebuildInEdges(int(own.VertexLo), int(own.VertexHi)); err != nil {
		return err
	}
	for i, p := range own.Priority {
		s.st.Activate(int(own.BlockLo)+i, math.Float64frombits(p))
	}
	s.RunID, s.Epoch = m.RunID, m.Epoch
	obslog.L().Info("resumed from checkpoint",
		"event", "ckpt.resume", "node", own.Node, "runID", m.RunID, "epoch", m.Epoch)
	return nil
}

// checkpointer drives the single-process crash-safety loop: every
// Config.Checkpoint.Interval it captures the engine's share (node 0 of 1)
// while the workers keep running and commits it.
type checkpointer[V, M any] struct {
	*Share[V, M]
	e *engine[V, M]
}

// newCheckpointer builds the run's checkpointer, or returns nil when
// Config.Checkpoint is disabled (the zero value) — the nil checkpointer
// costs nothing anywhere.
func newCheckpointer[V, M any](e *engine[V, M], cc Checkpoint) (*checkpointer[V, M], error) {
	if !cc.enabled() {
		return nil, nil
	}
	if e.op != nil {
		// An operation-based program's edge slots hold in-flight delta
		// mass; a fuzzy value snapshot cannot conserve it, so a resumed
		// run would converge to the wrong fixed point. Refuse rather than
		// resume wrong.
		obslog.L().Warn("checkpoint request refused",
			"event", "ckpt.refused", "program", e.Prog.Name(),
			"reason", "operation-based program: in-flight delta mass is not capturable")
		return nil, fmt.Errorf("core: checkpointing is not supported for operation-based program %q (in-flight delta mass is not captured); use its state-based form", e.Prog.Name())
	}
	store := cc.Store
	if store == nil {
		ds, err := checkpoint.NewDirStore(cc.Dir)
		if err != nil {
			return nil, err
		}
		store = ds
	}
	ck := &checkpointer[V, M]{NewShare(e.Kernel, e.Prog.Name(), 0, 1, e.st, e.tel, e.sh0), e}
	ck.Store, ck.RunID, ck.abandon = store, cc.RunID, e.fixedPoint.Load
	if ck.RunID == "" {
		ck.RunID = ck.ID.RunID()
	}
	return ck, nil
}

// resume restores the engine from the named run's last committed epoch;
// runWorkers then skips its fresh-run activation.
func (ck *checkpointer[V, M]) resume(resumeID string) error {
	m, shards, err := ck.Open(ck.Store, resumeID)
	if err != nil {
		return err
	}
	if err := ck.Restore(m, shards); err != nil {
		return err
	}
	ck.e.resumed = true
	return nil
}

// errAbandoned is a capture dropped because the run converged meanwhile.
var errAbandoned = errors.New("checkpoint abandoned: the run converged")

// loop runs the periodic capture until the run stops. A capture failure
// fails the run: the caller asked for durability, so losing it silently
// is not an option. An abandoned capture ends the loop quietly.
func (ck *checkpointer[V, M]) loop(stop <-chan struct{}) {
	t := time.NewTicker(ck.e.cfg.Checkpoint.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if err := ck.capture(); errors.Is(err, errAbandoned) {
			return
		} else if err != nil {
			ck.e.Fail(err)
			return
		}
	}
}

// capture writes and commits one checkpoint epoch. The watchdog is told
// (via ckptGen) not to count the capture's I/O time as an engine stall.
// Once the run has converged the epoch protects nothing — the result is
// final — so capture gives it up at the next step that would block on
// the store: before the snapshot, before the shard's fsync (abandon) and
// before the manifest's. A shard written without its manifest is what a
// crash between the two leaves, which the store already ignores. A run
// stopped by its epoch budget or by cancellation keeps every capture: it
// may be resumed.
func (ck *checkpointer[V, M]) capture() error {
	e := ck.e
	e.ckptGen.Add(1) // odd: capture in progress
	defer e.ckptGen.Add(1)
	epoch := ck.Epoch + 1
	if e.fixedPoint.Load() {
		return errAbandoned
	}
	err := ck.Capture(epoch)
	if err == nil && e.fixedPoint.Load() {
		return errAbandoned
	}
	if err == nil {
		err = ck.Commit(epoch)
	}
	if err != nil {
		return fmt.Errorf("core: checkpoint epoch %d: %w", epoch, err)
	}
	return nil
}
