package core

import (
	"fmt"
	"io"
	"math"
	"sync"
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
	runID    string
	epoch    uint64 // last written checkpoint epoch

	digest   string
	confHash string

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
			"event", "ckpt.refused", "program", e.prog.Name(),
			"reason", "operation-based program: in-flight delta mass is not capturable")
		return nil, fmt.Errorf("core: checkpointing is not supported for operation-based program %q (in-flight delta mass is not captured); use its state-based form", e.prog.Name())
	}
	store := cc.Store
	if store == nil {
		ds, err := checkpoint.NewDirStore(cc.Dir)
		if err != nil {
			return nil, err
		}
		store = ds
	}
	n := int64(e.g.NumVertices())
	nb := int64(e.part.NumBlocks())
	ck := &checkpointer[V, M]{
		e:        e,
		store:    store,
		interval: cc.Interval,
		digest:   checkpoint.DigestGraph(e.g),
		confHash: checkpoint.ConfigHash(e.prog.Name(), n, nb, e.values.Words(), 1),
		valbuf:   make([]uint64, n*int64(e.values.Words())),
		pribuf:   make([]uint64, nb),
		actbuf:   make([]byte, nb),
	}
	ck.runID = cc.RunID
	if ck.runID == "" {
		// A stable derived id: rerunning the same job on the same graph
		// lands in the same run directory, which is what makes a bare
		// `-resume latest` after a crash do the right thing.
		ck.runID = fmt.Sprintf("%s-%.8s%.8s", e.prog.Name(), ck.digest, ck.confHash)
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
	var m *checkpoint.Manifest
	var err error
	if resumeID == "latest" {
		m, err = ck.store.Latest()
	} else {
		m, err = ck.store.Load(resumeID)
	}
	if err != nil {
		return err
	}
	n := int64(e.g.NumVertices())
	nb := int64(e.part.NumBlocks())
	switch {
	case m.Program != e.prog.Name():
		return fmt.Errorf("core: resume %s: checkpoint is from program %q, this run is %q", m.RunID, m.Program, e.prog.Name())
	case m.GraphDigest != ck.digest:
		return fmt.Errorf("core: resume %s: checkpoint graph digest %s does not match this graph (%s)", m.RunID, m.GraphDigest, ck.digest)
	case m.ConfigHash != ck.confHash:
		return fmt.Errorf("core: resume %s: checkpoint config hash %s does not match this run (%s); block size, program, and graph must be identical", m.RunID, m.ConfigHash, ck.confHash)
	case m.Nodes != 1:
		return fmt.Errorf("core: resume %s: checkpoint is from a %d-node cluster run; resume it with the distributed runtime", m.RunID, m.Nodes)
	case m.NumVertices != n || m.NumBlocks != nb:
		return fmt.Errorf("core: resume %s: checkpoint shape %dx%d, run is %dx%d", m.RunID, m.NumVertices, m.NumBlocks, n, nb)
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
	if st.Nodes != 1 || st.NumVertices != n || st.NumBlocks != nb || st.Words != e.values.Words() ||
		st.VertexLo != 0 || st.VertexHi != n || st.BlockLo != 0 || st.BlockHi != nb {
		return fmt.Errorf("core: resume %s epoch %d: state shape does not match the manifest", m.RunID, m.Epoch)
	}
	e.values.RestoreWords(0, st.Values)
	ck.rebuildCache()
	if err := e.failure.Load(); err != nil {
		return *err // an edge-source failure during the rebuild
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

// rebuildCache re-derives every in-edge cache slot from the restored
// vertex values: slot s caches the scatter image of its source vertex.
// The cache is deliberately not checkpointed — it is |E| derived words
// whose ground truth is the |V| values array, and re-scattering is the
// same O(E) pass initArrays already pays.
func (ck *checkpointer[V, M]) rebuildCache() {
	e := ck.e
	n := e.g.NumVertices()
	workers := e.cfg.NumPEs + e.cfg.NumScatter
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vlo, vhi := w*n/workers, (w+1)*n/workers
			if vlo == vhi {
				return
			}
			slo, shi := e.g.InOffset(vlo), e.g.InOffset(vhi)
			srcs, _, release, err := e.edges.Block(vlo, vhi, slo, shi)
			if err != nil {
				e.fail(err)
				return
			}
			defer release()
			buf := make([]uint64, e.values.Words())
			var val V
			for s := slo; s < shi; s++ {
				src := srcs[s-slo]
				e.values.LoadBuf(int64(src), &val, buf)
				e.cache.StoreBuf(s, e.prog.ScatterValue(src, val, e.g), buf)
			}
		}(w)
	}
	wg.Wait()
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
			ck.e.fail(fmt.Errorf("core: checkpoint epoch %d: %w", ck.epoch+1, err))
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
	n := int64(e.g.NumVertices())
	nb := e.part.NumBlocks()
	e.values.SnapshotWords(0, n, ck.valbuf)
	e.st.SnapshotBlocks(0, nb, ck.pribuf, ck.actbuf)
	st := &checkpoint.State{
		NumVertices: n, NumBlocks: int64(nb), Words: e.values.Words(),
		Node: 0, Nodes: 1,
		VertexLo: 0, VertexHi: n,
		BlockLo: 0, BlockHi: int64(nb),
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
	if err := ck.store.Commit(&checkpoint.Manifest{
		RunID: ck.runID, Epoch: epoch, Nodes: 1,
		Program: e.prog.Name(), GraphDigest: ck.digest, ConfigHash: ck.confHash,
		NumVertices: n, NumBlocks: int64(nb),
		SavedUnixMs: time.Now().UnixMilli(),
	}); err != nil {
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
