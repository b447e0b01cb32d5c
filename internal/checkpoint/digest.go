package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"graphabcd/internal/graph"
)

// DigestOffsets fingerprints a graph from the quantities every runtime
// already holds: vertex/edge counts plus both full degree sequences (the
// CSC and CSR offset arrays). The distributed coordinator reads exactly
// these arrays from the snapshot header region, so single-process and
// cluster runs compute the same digest without an O(m) edge-list pass.
// Two graphs with identical degree sequences in both directions could
// collide, but the digest is a resume mismatch guard, not an integrity
// check — the state and graph files each carry their own CRCs.
func DigestOffsets(n, m int64, inOff, outOff []int64) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		_, _ = h.Write(b[:])
	}
	put(n)
	put(m)
	for _, o := range inOff {
		put(o)
	}
	for _, o := range outOff {
		put(o)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// DigestGraph is DigestOffsets over an in-memory graph.
func DigestGraph(g *graph.Graph) string {
	n, m := g.NumVertices(), g.NumEdges()
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		_, _ = h.Write(b[:])
	}
	put(int64(n))
	put(int64(m))
	for v := 0; v <= n; v++ {
		put(g.InOffset(v))
	}
	for v := 0; v <= n; v++ {
		put(g.OutOffset(v))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ConfigHash fingerprints the run shape a checkpoint's scheduler and
// value sections are only meaningful under: the program, the block
// geometry, the codec width, and the cluster size. Engine knobs that do
// not change state layout (worker counts, epsilon, policy) deliberately
// stay out, so a resume may retune them.
func ConfigHash(program string, numVertices, numBlocks int64, words, nodes int) string {
	h := fnv.New64a()
	_, _ = fmt.Fprintf(h, "prog=%s n=%d nb=%d words=%d nodes=%d", program, numVertices, numBlocks, words, nodes)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Identity is the run shape a checkpoint is only resumable under: the
// program, the graph (by digest), the block geometry, the codec width and
// the cluster size. Every runtime that checkpoints — the single-node
// engine and the -listen/-join cluster — builds one, and through it
// derives its default run id, stamps its manifests, and refuses a
// manifest written under any other shape.
type Identity struct {
	Program                string
	GraphDigest            string
	NumVertices, NumBlocks int64
	Words, Nodes           int
}

// ConfigHash is the package-level ConfigHash of this run shape.
func (id Identity) ConfigHash() string {
	return ConfigHash(id.Program, id.NumVertices, id.NumBlocks, id.Words, id.Nodes)
}

// RunID is the stable default run id: rerunning the same job on the same
// graph lands in the same run directory, which is what makes a bare
// `-resume latest` after a crash do the right thing.
func (id Identity) RunID() string {
	return fmt.Sprintf("%s-%.8s%.8s", id.Program, id.GraphDigest, id.ConfigHash())
}

// Manifest returns the commit record of epoch under runID, stamped with
// this identity and the current time.
func (id Identity) Manifest(runID string, epoch uint64) *Manifest {
	return &Manifest{
		RunID: runID, Epoch: epoch, Nodes: id.Nodes,
		Program: id.Program, GraphDigest: id.GraphDigest, ConfigHash: id.ConfigHash(),
		NumVertices: id.NumVertices, NumBlocks: id.NumBlocks,
		SavedUnixMs: time.Now().UnixMilli(),
	}
}

// Check refuses a manifest this run cannot resume, naming every field
// that differs.
func (id Identity) Check(m *Manifest) error {
	var diff []string
	if m.Program != id.Program {
		diff = append(diff, fmt.Sprintf("program mismatch: it is a %s run, this run is %s", m.Program, id.Program))
	}
	if m.Nodes != id.Nodes {
		diff = append(diff, fmt.Sprintf("it was written by %d nodes, this run has %d", m.Nodes, id.Nodes))
	}
	if m.NumVertices != id.NumVertices || m.NumBlocks != id.NumBlocks {
		diff = append(diff, fmt.Sprintf("shape %dx%d, this run is %dx%d (vertices x blocks)", m.NumVertices, m.NumBlocks, id.NumVertices, id.NumBlocks))
	}
	if m.GraphDigest != id.GraphDigest {
		diff = append(diff, fmt.Sprintf("graph digest %s, this graph is %s", m.GraphDigest, id.GraphDigest))
	}
	if h := id.ConfigHash(); m.ConfigHash != h {
		diff = append(diff, fmt.Sprintf("config hash %s, this run is %s (program, graph, block size and node count must be identical)", m.ConfigHash, h))
	}
	if diff == nil {
		return nil
	}
	return fmt.Errorf("checkpoint: %s does not match this run: %s", m.RunID, strings.Join(diff, "; "))
}

// Lookup resolves a resume request against s: "latest" is the store's
// most recently committed manifest, anything else a run id.
func Lookup(s Store, resume string) (*Manifest, error) {
	if resume == "latest" {
		return s.Latest()
	}
	return s.Load(resume)
}
