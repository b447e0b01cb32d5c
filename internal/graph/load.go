package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Format identifies an on-disk graph encoding.
type Format int

const (
	// FormatAuto selects the format automatically: on load by sniffing the
	// magic bytes, on save by the path's extension (".gabs" plain
	// snapshot, ".gabz" compressed snapshot, anything else text).
	FormatAuto Format = iota
	// FormatText is the "src dst [weight]" edge-list text format of
	// ReadEdgeList / WriteEdgeList.
	FormatText
	// FormatSnapshot is the plain binary snapshot of WriteSnapshot.
	FormatSnapshot
	// FormatSnapshotCompressed is the varint-compressed snapshot of
	// WriteSnapshotCompressed.
	FormatSnapshotCompressed
)

// String names the format for error messages and logs.
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatText:
		return "text"
	case FormatSnapshot:
		return "snapshot"
	case FormatSnapshotCompressed:
		return "snapshot-compressed"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// DetectSaveFormat resolves FormatAuto for a save path by extension:
// ".gabs" is a plain snapshot, ".gabz" a compressed one, anything else
// the text edge list. Non-auto formats pass through.
func DetectSaveFormat(path string, f Format) Format {
	if f != FormatAuto {
		return f
	}
	switch strings.ToLower(filepath.Ext(path)) {
	case ".gabs":
		return FormatSnapshot
	case ".gabz":
		return FormatSnapshotCompressed
	default:
		return FormatText
	}
}

// Load reads a graph from path, auto-detecting the format from the
// file's magic bytes (snapshot) or falling back to the text edge list.
func Load(path string) (*Graph, error) {
	return LoadFormat(path, FormatAuto)
}

// LoadFormat reads a graph from path in the given format; FormatAuto
// sniffs the magic bytes.
func LoadFormat(path string, f Format) (*Graph, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	g, err := ReadFormat(file, f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// ReadFormat reads a graph from r in the given format; FormatAuto peeks
// at the first bytes to distinguish a snapshot from text.
func ReadFormat(r io.Reader, f Format) (*Graph, error) {
	if f == FormatAuto {
		br := bufio.NewReaderSize(r, 1<<20)
		head, err := br.Peek(4)
		if err != nil && err != io.EOF {
			return nil, err
		}
		if IsSnapshotMagic(head) {
			return ReadSnapshot(br)
		}
		return ReadEdgeList(br)
	}
	switch f {
	case FormatText:
		return ReadEdgeList(r)
	case FormatSnapshot, FormatSnapshotCompressed:
		return ReadSnapshot(r)
	default:
		return nil, fmt.Errorf("graph: unknown load format %v", f)
	}
}

// Save writes g to path, choosing the format from the extension (see
// DetectSaveFormat). The file is written to a temporary sibling and
// renamed into place so a crashed save never leaves a torn file.
func Save(path string, g *Graph) error {
	return SaveFormat(path, g, FormatAuto)
}

// SaveFormat writes g to path in the given format (FormatAuto resolves
// by extension), atomically via a temporary sibling file.
func SaveFormat(path string, g *Graph, f Format) error {
	f = DetectSaveFormat(path, f)
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err := WriteFormat(tmp, g, f); err != nil {
		tmp.Close()           //abcdlint:ignore errcheck -- already failing
		os.Remove(tmp.Name()) //abcdlint:ignore errcheck -- already failing
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name()) //abcdlint:ignore errcheck -- already failing
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name()) //abcdlint:ignore errcheck -- already failing
		return err
	}
	return nil
}

// WriteFormat writes g to w in the given format. FormatAuto here means
// the text edge list (a writer has no path to take an extension from).
func WriteFormat(w io.Writer, g *Graph, f Format) error {
	switch f {
	case FormatAuto, FormatText:
		return WriteEdgeList(w, g)
	case FormatSnapshot:
		return WriteSnapshot(w, g)
	case FormatSnapshotCompressed:
		return WriteSnapshotCompressed(w, g)
	default:
		return fmt.Errorf("graph: unknown save format %v", f)
	}
}
