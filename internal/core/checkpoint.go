package core

import (
	"fmt"
	"io"
	"math"
	"time"

	"graphabcd/internal/checkpoint"
	"graphabcd/internal/obslog"
	"graphabcd/internal/telemetry"
)

// checkpointer drives the single-process crash-safety loop: every
// Config.Checkpoint.Interval it captures a fuzzy snapshot of the engine —
// vertex values, scheduler priorities and active flags, progress counters
// — while the workers keep running, and commits it through the store.
// Asynchronous BCD's convergence analysis is what licenses the fuzziness:
// a snapshot whose words were written at slightly different moments is
// just another bounded-staleness iterate, and resuming from it converges
// to the same fixed point (DESIGN.md §12).
type checkpointer[V, M any] struct {
	e        *engine[V, M]
	store    checkpoint.Store
	interval time.Duration
	id       checkpoint.Identity
	runID    string
	epoch    uint64 // last written checkpoint epoch

	// Capture buffers, allocated once: a checkpoint must not grow the
	// engine's allocation footprint every interval.
	valbuf []uint64
	pribuf []uint64
	actbuf []byte
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
	id := checkpoint.Identity{
		Program: e.Prog.Name(), GraphDigest: checkpoint.DigestGraph(e.G),
		NumVertices: e.nv, NumBlocks: int64(e.Part.NumBlocks()),
		Words: e.Values.Words(), Nodes: 1,
	}
	ck := &checkpointer[V, M]{
		e:        e,
		store:    store,
		interval: cc.Interval,
		id:       id,
		runID:    cc.RunID,
		valbuf:   make([]uint64, id.NumVertices*int64(id.Words)),
		pribuf:   make([]uint64, id.NumBlocks),
		actbuf:   make([]byte, id.NumBlocks),
	}
	if ck.runID == "" {
		ck.runID = id.RunID()
	}
	return ck, nil
}

// resume restores the engine from the named run's last committed epoch:
// vertex values and progress counters seed from the decoded state, the
// edge caches are rebuilt by re-scattering the restored values (the PR 2
// failover discipline), and every block is activated with its restored
// priority mass. Re-activating even blocks the checkpoint saw inactive is
// the fuzzy-capture correctness rule: an activation racing the capture
// may be missing from the snapshot, and one redundant sweep of a
// self-healing state-based program is cheap insurance against a silently
// premature fixed point.
func (ck *checkpointer[V, M]) resume(resumeID string) error {
	e := ck.e
	m, err := checkpoint.Lookup(ck.store, resumeID)
	if err != nil {
		return err
	}
	if err := ck.id.Check(m); err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	rc, err := ck.store.ReadState(m.RunID, m.Epoch, 0)
	if err != nil {
		return err
	}
	st, err := checkpoint.Decode(rc)
	_ = rc.Close()
	if err != nil {
		return fmt.Errorf("core: resume %s epoch %d: %w", m.RunID, m.Epoch, err)
	}
	n, nb := ck.id.NumVertices, ck.id.NumBlocks
	if st.Nodes != 1 || st.NumVertices != n || st.NumBlocks != nb || st.Words != ck.id.Words ||
		st.VertexLo != 0 || st.VertexHi != n || st.BlockLo != 0 || st.BlockHi != nb {
		return fmt.Errorf("core: resume %s epoch %d: state shape does not match the manifest", m.RunID, m.Epoch)
	}
	e.Values.StoreWords(0, st.Values)
	// The cache is deliberately not checkpointed — it is |E| derived words
	// whose ground truth is the |V| values array, and re-scattering is the
	// same O(E) pass initialization already pays.
	e.eachSlice(e.RebuildInEdges)
	if err := e.Err(); err != nil {
		return err // an edge-source failure during the rebuild
	}
	// Seed the progress counters so Stats and the MaxEpochs budget span
	// the whole logical run, not just the post-resume segment.
	e.sh0.Add(telemetry.CtrVertexUpdates, st.Counters.VertexUpdates)
	e.sh0.Add(telemetry.CtrBlockUpdates, st.Counters.BlockUpdates)
	e.sh0.Add(telemetry.CtrEdgesTraversed, st.Counters.EdgesTraversed)
	for b := 0; b < int(nb); b++ {
		e.st.Activate(b, math.Float64frombits(st.Priority[b]))
	}
	e.resumed = true
	ck.runID = m.RunID
	ck.epoch = m.Epoch
	obslog.L().Info("resumed from checkpoint",
		"event", "ckpt.resume", "runID", m.RunID, "epoch", m.Epoch)
	return nil
}

// loop runs the periodic capture until the run stops. A capture failure
// fails the run: the caller asked for durability, so losing it silently
// is not an option.
func (ck *checkpointer[V, M]) loop(stop <-chan struct{}) {
	t := time.NewTicker(ck.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if err := ck.capture(); err != nil {
			ck.e.Fail(fmt.Errorf("core: checkpoint epoch %d: %w", ck.epoch+1, err))
			return
		}
	}
}

// capture writes one checkpoint epoch and commits its manifest. Workers
// are never paused: values, priorities, and flags are read with the same
// atomics the workers use, and the watchdog is told (via ckptGen) not to
// count the capture's I/O time as an engine stall.
func (ck *checkpointer[V, M]) capture() error {
	e := ck.e
	e.ckptGen.Add(1) // odd: capture in progress
	defer e.ckptGen.Add(1)
	ckStart := e.tel.Stamp()
	n, nb := ck.id.NumVertices, ck.id.NumBlocks
	e.Values.SnapshotWords(0, n, ck.valbuf)
	e.st.SnapshotBlocks(0, int(nb), ck.pribuf, ck.actbuf)
	st := &checkpoint.State{
		NumVertices: n, NumBlocks: nb, Words: ck.id.Words,
		Node: 0, Nodes: 1,
		VertexLo: 0, VertexHi: n,
		BlockLo: 0, BlockHi: nb,
		Values: ck.valbuf, Priority: ck.pribuf, Active: ck.actbuf,
		Counters: checkpoint.Counters{
			VertexUpdates:  e.tel.Total(telemetry.CtrVertexUpdates),
			BlockUpdates:   e.tel.Total(telemetry.CtrBlockUpdates),
			EdgesTraversed: e.tel.Total(telemetry.CtrEdgesTraversed),
		},
	}
	epoch := ck.epoch + 1
	var written int64
	if err := ck.store.WriteState(ck.runID, epoch, 0, func(w io.Writer) (err error) {
		written, err = checkpoint.EncodeCounted(w, st)
		return err
	}); err != nil {
		return err
	}
	if err := ck.store.Commit(ck.id.Manifest(ck.runID, epoch)); err != nil {
		return err
	}
	// The epoch's durability cost, observed on the checkpoint goroutine's
	// shard (sh0 belongs to the engine's housekeeping goroutines, whose
	// counter slots are atomics — concurrent adds are safe).
	e.sh0.Add(telemetry.CtrCkptEpochs, 1)
	e.sh0.Add(telemetry.CtrCkptBytes, written)
	e.sh0.Observe(telemetry.StageCkpt, e.tel.Stamp()-ckStart)
	obslog.L().Info("checkpoint epoch committed",
		"event", "ckpt.commit", "runID", ck.runID, "epoch", epoch, "bytes", written)
	ck.epoch = epoch
	return nil
}
