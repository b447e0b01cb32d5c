// Distributed fuzzy checkpointing for the -listen/-join runtime
// (DESIGN.md §12). The coordinator drives cluster-wide checkpoint epochs
// over the control lane: on each tick it captures its own node state,
// sends fCkpt to every joiner, and commits the epoch's manifest only
// after every joiner has acked its state file durable — so a crash at
// any point leaves either the previous fully-acked epoch or nothing, and
// a torn checkpoint is never resumable.
//
// The capture is fuzzy: no node pauses its workers, and the nodes
// capture at slightly different moments, so a batch in flight between
// two capture points may be present in the sender's values and absent
// from the receiver's cache. That is safe for the state-based programs
// the dist runtime serves, because resume does not restore caches at
// all: every node re-derives its owned in-edge cache slots from the
// restored global values array (each node's state file carries its owned
// vertex range; the store is a shared filesystem, so every node reads
// all of them), which reconstructs exactly the updates any lost batch
// would have delivered. Missed activations are covered the same way the
// single-process resume covers them — every owned block restarts active.
package tcp

import (
	"fmt"
	"io"
	"math"

	"graphabcd/internal/checkpoint"
	"graphabcd/internal/obslog"
	"graphabcd/internal/telemetry"
)

// distCheckpointer is one node's view of the cluster checkpoint plan.
type distCheckpointer[V, M any] struct {
	d     *distRun[V, M]
	store *checkpoint.DirStore
	runID string
	id    checkpoint.Identity
	epoch uint64 // last locally written epoch (committed only on node 0)
}

func newDistCheckpointer[V, M any](d *distRun[V, M]) (*distCheckpointer[V, M], error) {
	store, err := checkpoint.NewDirStore(d.a.ckpt.dir)
	if err != nil {
		return nil, err
	}
	return &distCheckpointer[V, M]{
		d:     d,
		store: store,
		runID: d.a.ckpt.runID,
		// The partial graphs carry both full offset arrays, so every node
		// computes the same digest the coordinator computed from the
		// snapshot file — and the same one a single-process run computes.
		id: checkpoint.Identity{
			Program: algoName(d.a.algo), GraphDigest: checkpoint.DigestGraph(d.G),
			NumVertices: int64(d.G.NumVertices()), NumBlocks: int64(d.Part.NumBlocks()),
			Words: d.Values.Words(), Nodes: d.a.cfg.Nodes,
		},
		epoch: d.a.ckpt.resumeEpoch,
	}, nil
}

// captureNode writes this node's state file for the given epoch: owned
// vertex values, owned block priorities and active flags, owned slot
// stamps, and the envelope sequence — all read with the same atomics the
// workers use, while the workers keep running.
func (dc *distCheckpointer[V, M]) captureNode(epoch uint64) error {
	d := dc.d
	ckStart := d.Tel.Stamp()
	vlo, vhi, slo, shi, blo, bhi := dc.nodeSpans(d.ID)
	words := d.Values.Words()
	st := &checkpoint.State{
		NumVertices: int64(d.G.NumVertices()),
		NumBlocks:   int64(d.Part.NumBlocks()),
		Words:       words,
		Node:        d.ID,
		Nodes:       d.a.cfg.Nodes,
		VertexLo:    vlo, VertexHi: vhi,
		BlockLo: int64(blo), BlockHi: int64(bhi),
		SlotBase: slo,
		Values:   make([]uint64, (vhi-vlo)*int64(words)),
		Priority: make([]uint64, bhi-blo),
		Active:   make([]byte, bhi-blo),
		Stamps:   make([]uint64, shi-slo),
		Counters: checkpoint.Counters{Seq: d.Seq()},
	}
	d.Values.SnapshotWords(vlo, vhi, st.Values)
	d.Sched.SnapshotBlocks(blo, bhi, st.Priority, st.Active)
	d.SnapshotStamps(slo, st.Stamps)
	var written int64
	if err := dc.store.WriteState(dc.runID, epoch, d.ID, func(w io.Writer) (err error) {
		written, err = checkpoint.EncodeCounted(w, st)
		return err
	}); err != nil {
		return err
	}
	// The durability cost of this epoch, on the control-plane shard: the
	// capture runs on the control goroutine, never a worker.
	d.Ctl.Add(telemetry.CtrCkptEpochs, 1)
	d.Ctl.Add(telemetry.CtrCkptBytes, written)
	d.Ctl.Observe(telemetry.StageCkpt, d.Tel.Stamp()-ckStart)
	dc.epoch = epoch
	return nil
}

// resumeNode restores this node from the assignment's committed epoch.
// Every node's state file contributes its owned vertex values (the full
// global iterate); only this node's file contributes scheduler mass and
// slot stamps. The owned cache is then rebuilt from the restored values,
// and the envelope sequence restarts above every stamp in the cluster
// (assign.seqBase, computed by the coordinator from all state files).
func (dc *distCheckpointer[V, M]) resumeNode() error {
	d := dc.d
	epoch := d.a.ckpt.resumeEpoch
	// A scrape mid-restore would read a half-restored iterate: the node
	// is explicitly not ready until the rebuild below completes (start()
	// flips it back).
	d.setReady(false, "checkpoint resume")
	obslog.L().Info("resuming from checkpoint",
		"event", "ckpt.resume", "node", d.ID, "runID", dc.runID, "epoch", epoch)
	n := int64(d.G.NumVertices())
	nb := int64(d.Part.NumBlocks())
	words := d.Values.Words()
	for node := 0; node < d.a.cfg.Nodes; node++ {
		st, err := dc.readState(epoch, node)
		if err != nil {
			return err
		}
		if st.NumVertices != n || st.NumBlocks != nb || st.Words != words {
			return fmt.Errorf("tcp: resume epoch %d node %d: state shape %dx%dx%d does not match the run (%dx%dx%d)",
				epoch, node, st.NumVertices, st.NumBlocks, st.Words, n, nb, words)
		}
		wantVlo, wantVhi, wantSlo, wantShi, blo, bhi := dc.nodeSpans(node)
		if st.VertexLo != wantVlo || st.VertexHi != wantVhi {
			return fmt.Errorf("tcp: resume epoch %d node %d: vertex range [%d,%d), want [%d,%d)",
				epoch, node, st.VertexLo, st.VertexHi, wantVlo, wantVhi)
		}
		d.Values.StoreWords(st.VertexLo, st.Values)
		if node != d.ID {
			continue
		}
		if st.SlotBase != wantSlo || int64(len(st.Stamps)) != wantShi-wantSlo {
			return fmt.Errorf("tcp: resume epoch %d node %d: slot range [%d,+%d), want [%d,+%d)",
				epoch, node, st.SlotBase, len(st.Stamps), wantSlo, wantShi-wantSlo)
		}
		d.RestoreStamps(st.SlotBase, st.Stamps)
		// Add the captured Gauss-Southwell mass on top of the baseline
		// activation the node was seeded with: every owned block restarts
		// active (a fuzzy capture may have missed an activation), and
		// the restored priorities preserve the scheduling order.
		for b := blo; b < bhi; b++ {
			d.Sched.Activate(b, math.Float64frombits(st.Priority[b-blo]))
		}
	}
	// Re-derive every owned in-edge cache slot from the restored global
	// values — this is what reconstructs any update batch the fuzzy
	// capture lost in flight. The restored stamps stay: seqBase already
	// sits above all of them.
	if err := d.RebuildInEdges(d.VertexRange(d.ID)); err != nil {
		return err
	}
	d.SetSeq(d.a.ckpt.seqBase)
	return nil
}

// nodeSpans mirrors the owned ranges any node computes for itself.
func (dc *distCheckpointer[V, M]) nodeSpans(node int) (vlo, vhi, slo, shi int64, blo, bhi int) {
	d := dc.d
	blo, bhi = d.BlockRange(node)
	lo, hi := d.VertexRange(node)
	return int64(lo), int64(hi), d.G.InOffset(lo), d.G.InOffset(hi), blo, bhi
}

func (dc *distCheckpointer[V, M]) readState(epoch uint64, node int) (*checkpoint.State, error) {
	rc, err := dc.store.ReadState(dc.runID, epoch, node)
	if err != nil {
		return nil, err
	}
	st, err := checkpoint.Decode(rc)
	_ = rc.Close()
	if err != nil {
		return nil, fmt.Errorf("tcp: resume epoch %d node %d: %w", epoch, node, err)
	}
	if st.Node != node || st.Nodes != dc.d.a.cfg.Nodes {
		return nil, fmt.Errorf("tcp: resume epoch %d: state file claims node %d/%d, want %d/%d",
			epoch, st.Node, st.Nodes, node, dc.d.a.cfg.Nodes)
	}
	return st, nil
}

// checkpointRound drives one cluster-wide checkpoint epoch from the
// coordinator: own capture, fCkpt to every joiner, all acks, then — and
// only then — the manifest commit. The control lane is lockstep, so the
// acks arrive in joiner order; the fuzziness is in when each node's
// capture samples its live state, not in the commit.
func (d *distRun[V, M]) checkpointRound(joiners []*ctrlConn) error {
	dc := d.ckpt
	epoch := dc.epoch + 1
	for _, j := range joiners {
		if err := j.write(appendEpoch(newFrame(fCkpt), epoch)); err != nil {
			return fmt.Errorf("tcp: checkpoint epoch %d: %w", epoch, err)
		}
	}
	if err := dc.captureNode(epoch); err != nil {
		return err
	}
	for i, j := range joiners {
		body, err := j.expect(fCkptAck)
		if err != nil {
			return fmt.Errorf("tcp: checkpoint ack from node %d: %w", i+1, err)
		}
		got, err := decodeEpoch(body[1:])
		if err != nil {
			return err
		}
		if got != epoch {
			return fmt.Errorf("tcp: node %d acked checkpoint epoch %d, want %d", i+1, got, epoch)
		}
	}
	if err := dc.store.Commit(dc.id.Manifest(dc.runID, epoch)); err != nil {
		return err
	}
	obslog.L().Info("checkpoint epoch committed",
		"event", "ckpt.commit", "runID", dc.runID, "epoch", epoch, "nodes", d.a.cfg.Nodes)
	return nil
}
