package edgestore

import (
	"fmt"

	"graphabcd/internal/graph"
)

// OpenSnapshot opens a plain (uncompressed) graph snapshot written by
// graph.WriteSnapshot as an out-of-core edge source for g. The snapshot's
// fixed section layout stores inSrc and inW as contiguous little-endian
// arrays at offsets computable from (V, E), so the one file serves both
// as the reloadable graph image and as the pread-backed edge store — no
// separate GABE spill needed.
//
// The snapshot must describe the same graph: V and E are checked against
// g. Compressed snapshots ("GABZ") are not preadable; load them into
// memory or re-save with graph.FormatSnapshot.
func OpenSnapshot(g *graph.Graph, path string) (Source, error) {
	f, n, m, l, err := graph.OpenPlainSnapshot(path)
	if err != nil {
		return nil, fmt.Errorf("edgestore: %w", err)
	}
	if n != g.NumVertices() || m != g.NumEdges() {
		_ = f.Close() // the mismatch supersedes the close error
		return nil, fmt.Errorf("edgestore: snapshot is for V=%d E=%d, graph has V=%d E=%d",
			n, m, g.NumVertices(), g.NumEdges())
	}
	return &fileSource{g: g, f: f, size: l.End, srcOff: l.InSrc, wOff: l.InW}, nil
}
