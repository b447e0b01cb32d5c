// Distributed fuzzy checkpointing for the -listen/-join runtime
// (DESIGN.md §12). Each node owns one core.Share — the capture, shape
// check and restore the single-process engine runs as node 0 of 1 — over
// its owned values, priorities and counters; the coordinator's checkpoint
// round commits an epoch's manifest after every node has acked its shard
// durable, so a crash leaves the previous fully-acked epoch or nothing.
// Nodes capture at slightly different moments while their workers run, so
// a batch in flight across two capture points may be missing from the
// receiver's images; a resume re-derives every image from the restored
// values, which reconstructs exactly what that batch carried. The resumed
// nodes are fresh processes that never see an envelope of the run they
// resume, so their envelope sequences and stamps start at 0, as a fresh
// run's do.
package tcp

import (
	"errors"
	"fmt"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/checkpoint"
	"graphabcd/internal/core"
)

// ckptPlan is the coordinator's resolved checkpoint/resume decision,
// broadcast to every node through the assignment. dir names a store
// directory every node can reach (the protocol assumes a shared
// filesystem); empty disables checkpointing. resumeEpoch > 0 restores
// that committed epoch before the run starts.
type ckptPlan struct {
	dir         string
	runID       string
	interval    time.Duration
	resumeEpoch uint64

	// Only in the coordinator's process: its store, and the shards the
	// plan decoded, which node 0 restores without decoding them again.
	store  checkpoint.Store
	shards []*checkpoint.State
}

// resolveCheckpointPlan turns the serve config into the cluster's
// checkpoint plan over store (nil without CheckpointDir), validating a
// requested resume against the snapshot before any joiner is assigned:
// core.Layout.Open refuses a manifest whose identity or node count
// differs from this run, and every shard of the committed epoch that
// does not decode or is not its owner's span.
func resolveCheckpointPlan(cfg DistConfig, snap *snapshotSections, blockSize int, store checkpoint.Store) (ckptPlan, error) {
	p := ckptPlan{store: store}
	if cfg.CheckpointDir == "" {
		if cfg.Resume != "" {
			return p, errors.New("tcp: Resume needs CheckpointDir")
		}
		if cfg.RunID != "" {
			return p, errors.New("tcp: RunID needs CheckpointDir")
		}
		return p, nil
	}
	code, err := algoCode(cfg.Algo)
	if err != nil {
		return p, err
	}
	words, err := algoWords(code)
	if err != nil {
		return p, err
	}
	layout := core.NewLayout(algoName(code),
		checkpoint.DigestOffsets(int64(snap.n), int64(snap.m), snap.inOff, snap.outOff),
		snap.n, (snap.n+blockSize-1)/blockSize, blockSize, words, cfg.Nodes)
	p.dir = cfg.CheckpointDir
	p.interval = cfg.checkpointInterval()
	p.runID = cfg.RunID
	if p.runID == "" {
		p.runID = layout.ID.RunID()
	}
	if !checkpoint.ValidRunID(p.runID) {
		return p, fmt.Errorf("tcp: checkpoint run id %q invalid (want [A-Za-z0-9._-], no leading dot)", p.runID)
	}
	if cfg.Resume == "" {
		return p, nil
	}
	m, shards, err := layout.Open(store, cfg.Resume)
	if err != nil {
		return p, err
	}
	p.runID, p.resumeEpoch, p.shards = m.RunID, m.Epoch, shards
	return p, nil
}

// algoWords is the codec width each dist algorithm's program uses —
// part of the config hash, needed before the generic dispatch picks a
// concrete program type.
func algoWords(code byte) (int, error) {
	switch code {
	case algoPR:
		return bcd.PageRank{}.Codec().Words(), nil
	case algoSSSP:
		return bcd.SSSP{}.Codec().Words(), nil
	case algoBFS:
		return bcd.BFS{}.Codec().Words(), nil
	case algoCC:
		return bcd.CC{}.Codec().Words(), nil
	}
	return 0, fmt.Errorf("tcp: unknown algorithm code %d", code)
}

// openCheckpoint builds this node's checkpoint share and, when the plan
// resumes, restores the planned epoch into it.
func (d *distRun[V, M]) openCheckpoint() error {
	store := d.a.ckpt.store // the coordinator's; a joiner opens the shared directory
	if store == nil {
		ds, err := checkpoint.NewDirStore(d.a.ckpt.dir)
		if err != nil {
			return err
		}
		store = ds
	}
	// The partial graphs carry both full offset arrays, so every node
	// computes the same digest the coordinator computed from the snapshot
	// file — and the same one a single-process run computes.
	ck := core.NewShare(d.Kernel, algoName(d.a.algo), d.ID, d.a.cfg.Nodes, d.Sched, d.Tel, d.Ctl)
	ck.Store, ck.RunID = store, d.a.ckpt.runID
	d.ckpt = ck
	if d.a.ckpt.resumeEpoch == 0 {
		return nil
	}
	// A scrape mid-restore would read a half-restored iterate: the node
	// is explicitly not ready until the restore completes (start() flips
	// it back).
	d.setReady(false, "checkpoint resume")
	// Node 0 re-reads only the manifest, to refuse an epoch committed
	// since its plan; a joiner decodes its own copies of the shards.
	var m *checkpoint.Manifest
	shards := d.a.ckpt.shards
	var err error
	if shards == nil {
		m, shards, err = ck.Open(store, ck.RunID)
	} else {
		m, err = checkpoint.Lookup(store, ck.RunID)
	}
	d.a.ckpt.shards = nil // the run must not pin a decoded copy of every shard
	if err != nil {
		return err
	}
	if m.Epoch != d.a.ckpt.resumeEpoch {
		return fmt.Errorf("tcp: resume %s: committed epoch is %d, the coordinator planned %d", m.RunID, m.Epoch, d.a.ckpt.resumeEpoch)
	}
	return ck.Restore(m, shards)
}
