package checkpoint

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"graphabcd/internal/obslog"
)

// DefaultInterval is the CLI's, graphabcdd's and the -listen coordinator's
// checkpoint period when none is given. (core.Checkpoint.Interval 0 still
// means no periodic checkpoints.)
const DefaultInterval = 5 * time.Second

// Manifest is the commit record of one checkpoint epoch. It is written
// last, atomically, and only after every node's state file is durable —
// the commit rule that makes a torn checkpoint unresumable: a crash
// mid-checkpoint leaves the previous manifest in place, so resume always
// lands on a fully acked epoch.
//
// The identity triple (GraphDigest, Program, ConfigHash) pins the state
// files to the exact run shape that wrote them; resume refuses a manifest
// whose triple does not match the restarting run.
type Manifest struct {
	RunID       string `json:"run_id"`
	Epoch       uint64 `json:"epoch"`
	Nodes       int    `json:"nodes"`
	Program     string `json:"program"`
	GraphDigest string `json:"graph_digest"`
	ConfigHash  string `json:"config_hash"`
	NumVertices int64  `json:"num_vertices"`
	NumBlocks   int64  `json:"num_blocks"`
	SavedUnixMs int64  `json:"saved_unix_ms"`
}

// validate bounds a decoded manifest the same way the state decoder
// bounds its header: a hostile manifest must fail loudly.
func (m *Manifest) validate() error {
	switch {
	case !ValidRunID(m.RunID):
		return fmt.Errorf("checkpoint: manifest run id %q invalid", m.RunID)
	case m.Nodes < 1 || m.Nodes > maxCkptNodes:
		return fmt.Errorf("checkpoint: manifest nodes %d out of range", m.Nodes)
	case m.NumVertices < 0 || m.NumVertices > maxCkptVertices:
		return fmt.Errorf("checkpoint: manifest vertex count %d out of range", m.NumVertices)
	case m.NumBlocks < 0 || m.NumBlocks > maxCkptVertices:
		return fmt.Errorf("checkpoint: manifest block count %d out of range", m.NumBlocks)
	case m.Program == "":
		return errors.New("checkpoint: manifest has no program")
	}
	return nil
}

// Store persists checkpoint epochs. WriteState streams one node's state
// file for an epoch; Commit publishes the epoch's manifest after every
// state file is durable; Load/ReadState serve a resume. Implementations
// must make WriteState and Commit atomic (no reader may observe a partial
// file), which DirStore gets from temp+rename on one filesystem.
type Store interface {
	WriteState(runID string, epoch uint64, node int, write func(io.Writer) error) error
	Commit(m *Manifest) error
	Load(runID string) (*Manifest, error)
	ReadState(runID string, epoch uint64, node int) (io.ReadCloser, error)
	// Latest returns the most recently committed manifest across all run
	// ids, or an error when the store holds none; it backs -resume latest.
	Latest() (*Manifest, error)
}

// maxManifestBytes bounds the manifest read; a manifest is a few hundred
// bytes, so anything near the cap is garbage.
const maxManifestBytes = 1 << 20

// ValidRunID accepts filesystem-safe run ids: no separators, no dot
// prefixes, nothing a hostile id could use to escape the store directory.
// Engine configs validate ids with it before a run starts.
func ValidRunID(id string) bool {
	if id == "" || len(id) > 128 || id[0] == '.' {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.':
		default:
			return false
		}
	}
	return true
}

// DirStore is the filesystem Store: one directory per run id holding
// `ep<epoch>-n<node>.gabc` state files and a `MANIFEST.json` commit
// record, all placed by temp+rename so a crash never leaves a partial
// file under a committed name.
type DirStore struct {
	dir string
}

// NewDirStore opens (creating if needed) a checkpoint directory.
func NewDirStore(dir string) (*DirStore, error) {
	if dir == "" {
		return nil, errors.New("checkpoint: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: store dir: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (d *DirStore) Dir() string { return d.dir }

func stateFileName(epoch uint64, node int) string {
	return fmt.Sprintf("ep%016d-n%04d.gabc", epoch, node)
}

func (d *DirStore) runDir(runID string) (string, error) {
	if !ValidRunID(runID) {
		return "", fmt.Errorf("checkpoint: run id %q invalid (want [A-Za-z0-9._-], no leading dot)", runID)
	}
	return filepath.Join(d.dir, runID), nil
}

// WriteState atomically writes one node's state file for an epoch.
func (d *DirStore) WriteState(runID string, epoch uint64, node int, write func(io.Writer) error) error {
	rd, err := d.runDir(runID)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(rd, 0o755); err != nil {
		return fmt.Errorf("checkpoint: run dir: %w", err)
	}
	return AtomicWriteFile(filepath.Join(rd, stateFileName(epoch, node)), write)
}

// Commit atomically publishes the epoch's manifest. The caller must have
// completed every node's WriteState for the epoch first.
func (d *DirStore) Commit(m *Manifest) error {
	if err := m.validate(); err != nil {
		obslog.L().Warn("manifest commit refused",
			"event", "ckpt.commit_refused", "runID", m.RunID, "epoch", m.Epoch, "err", err)
		return err
	}
	rd, err := d.runDir(m.RunID)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(rd, 0o755); err != nil {
		return fmt.Errorf("checkpoint: run dir: %w", err)
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return AtomicWriteFile(filepath.Join(rd, "MANIFEST.json"), func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
}

// Load reads and validates a run's committed manifest.
func (d *DirStore) Load(runID string) (*Manifest, error) {
	rd, err := d.runDir(runID)
	if err != nil {
		return nil, err
	}
	return loadManifest(filepath.Join(rd, "MANIFEST.json"))
}

func loadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: no committed checkpoint: %w", err)
	}
	defer func() { _ = f.Close() }()
	m, err := DecodeManifest(io.LimitReader(f, maxManifestBytes))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: manifest %s: %w", path, err)
	}
	return m, nil
}

// DecodeManifest parses and validates a manifest from r.
func DecodeManifest(r io.Reader) (*Manifest, error) {
	m := &Manifest{}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(m); err != nil {
		return nil, err
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// ReadState opens one node's committed state file.
func (d *DirStore) ReadState(runID string, epoch uint64, node int) (io.ReadCloser, error) {
	rd, err := d.runDir(runID)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(rd, stateFileName(epoch, node)))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: state file for epoch %d node %d: %w", epoch, node, err)
	}
	return f, nil
}

// Latest scans the store for the most recently committed manifest.
func (d *DirStore) Latest() (*Manifest, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: store dir: %w", err)
	}
	// Deterministic tie-break: sort by name, keep the newest timestamp.
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	var best *Manifest
	for _, e := range entries {
		if !e.IsDir() || !ValidRunID(e.Name()) {
			continue
		}
		m, err := loadManifest(filepath.Join(d.dir, e.Name(), "MANIFEST.json"))
		if err != nil {
			// An uncommitted or torn run dir is not a candidate, but a
			// human debugging "-resume latest picked the wrong run" wants
			// to see what was skipped and why.
			obslog.L().Debug("skipping uncommitted run dir",
				"event", "ckpt.skip_torn", "run", e.Name(), "err", err)
			continue
		}
		if best == nil || m.SavedUnixMs > best.SavedUnixMs {
			best = m
		}
	}
	if best == nil {
		return nil, fmt.Errorf("checkpoint: no committed checkpoint under %s", d.dir)
	}
	return best, nil
}

// AtomicWriteFile writes a file so that a crash at any point leaves
// either the previous content or the new content at path, never a
// truncated mix: the payload streams into a same-directory temp file,
// is synced to stable storage, and only then renamed over the target.
// The -values-out writer and every store write share this discipline.
func AtomicWriteFile(path string, write func(io.Writer) error) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, "."+strings.TrimSuffix(base, filepath.Ext(base))+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = tmp.Close()
			_ = os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 1<<20)
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	// Sync before rename: the rename must never become visible ahead of
	// the bytes it names (the classic zero-length-file crash artifact).
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
