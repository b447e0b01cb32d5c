package edgestore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"graphabcd/internal/graph"
)

// Compressed format (little-endian):
//
//	magic "GABC" | version u32 | n u64 | m u64 | flags u32
//	vertexOffsets [n+1]u64   (byte offset of each vertex's data region)
//	per vertex: delta-varint sources (ascending within the vertex),
//	            then raw f32 weights unless FlagUnweighted.
//
// Delta-varint exploits the CSC layout's (dst, src) sort order: within a
// vertex's slot range the sources ascend, so most gaps fit one byte on
// skewed graphs.
const (
	compMagic      = "GABC"
	compVersion    = 1
	flagUnweighted = 1
)

// WriteCompressed writes g's static edge structure in the compressed
// out-of-core format.
func WriteCompressed(g *graph.Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()

	n := g.NumVertices()
	unweighted := true
	for _, w := range g.InWeightsRange(0, int64(g.NumEdges())) {
		if w != 1 {
			unweighted = false
			break
		}
	}

	// First pass: compute per-vertex encoded sizes.
	offsets := make([]uint64, n+1)
	var varint [binary.MaxVarintLen64]byte
	pos := uint64(0)
	for v := 0; v < n; v++ {
		offsets[v] = pos
		prev := uint32(0)
		for s := g.InOffset(v); s < g.InOffset(v+1); s++ {
			src := g.InSrc(s)
			pos += uint64(binary.PutUvarint(varint[:], uint64(src-prev)))
			prev = src
		}
		if !unweighted {
			pos += 4 * uint64(g.InOffset(v+1)-g.InOffset(v))
		}
	}
	offsets[n] = pos

	bw := bufio.NewWriterSize(f, 1<<20)
	var hdr [4 + 4 + 8 + 8 + 4]byte
	copy(hdr[:4], compMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], compVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(n))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(g.NumEdges()))
	if unweighted {
		binary.LittleEndian.PutUint32(hdr[24:28], flagUnweighted)
	}
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var u64 [8]byte
	for _, off := range offsets {
		binary.LittleEndian.PutUint64(u64[:], off)
		if _, err := bw.Write(u64[:]); err != nil {
			return err
		}
	}
	// Second pass: emit the data regions.
	for v := 0; v < n; v++ {
		prev := uint32(0)
		for s := g.InOffset(v); s < g.InOffset(v+1); s++ {
			src := g.InSrc(s)
			k := binary.PutUvarint(varint[:], uint64(src-prev))
			if _, err := bw.Write(varint[:k]); err != nil {
				return err
			}
			prev = src
		}
		if !unweighted {
			var b4 [4]byte
			for s := g.InOffset(v); s < g.InOffset(v+1); s++ {
				binary.LittleEndian.PutUint32(b4[:], f32bits(g.InWeight(s)))
				if _, err := bw.Write(b4[:]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// OpenCompressed opens a compressed edge file for the given graph.
func OpenCompressed(g *graph.Graph, path string) (_ Source, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = f.Close() // the validation error supersedes the close error
		}
	}()
	var hdr [4 + 4 + 8 + 8 + 4]byte
	if _, err = io.ReadFull(f, hdr[:]); err != nil {
		return nil, err
	}
	if string(hdr[:4]) != compMagic {
		return nil, fmt.Errorf("edgestore: bad compressed magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != compVersion {
		return nil, fmt.Errorf("edgestore: unsupported compressed version %d", v)
	}
	n := int(binary.LittleEndian.Uint64(hdr[8:16]))
	m := int(binary.LittleEndian.Uint64(hdr[16:24]))
	if n != g.NumVertices() || m != g.NumEdges() {
		return nil, fmt.Errorf("edgestore: compressed file is for V=%d E=%d, graph has V=%d E=%d",
			n, m, g.NumVertices(), g.NumEdges())
	}
	unweighted := binary.LittleEndian.Uint32(hdr[24:28])&flagUnweighted != 0

	// Size the offset table from the graph we already hold, not the decoded
	// header count: the two are equal (checked above), but deriving the
	// allocation from validated state keeps a hostile header from ever
	// naming the size.
	nv := g.NumVertices()
	offRaw := make([]byte, 8*(nv+1))
	if _, err = io.ReadFull(f, offRaw); err != nil {
		return nil, err
	}
	offsets := make([]uint64, nv+1)
	for i := range offsets {
		offsets[i] = binary.LittleEndian.Uint64(offRaw[8*i:])
		if i > 0 && offsets[i] < offsets[i-1] {
			return nil, fmt.Errorf("edgestore: corrupt offset table at vertex %d", i)
		}
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	dataStart := int64(len(hdr)) + int64(len(offRaw))
	if int64(offsets[nv]) != fi.Size()-dataStart {
		return nil, fmt.Errorf("edgestore: data region is %d bytes, offsets claim %d",
			fi.Size()-dataStart, offsets[n])
	}
	return &compSource{
		g: g, f: f, size: fi.Size(),
		dataStart:  dataStart,
		offsets:    offsets,
		unweighted: unweighted,
	}, nil
}

type compSource struct {
	g          *graph.Graph
	f          *os.File
	size       int64
	dataStart  int64
	offsets    []uint64
	unweighted bool
	pool       sync.Pool // *compBuf
}

type compBuf struct {
	raw []byte
	src []uint32
	w   []float32
}

func (s *compSource) Block(vlo, vhi int, slo, shi int64) ([]uint32, []float32, func(), error) {
	if err := validateRange(s.g, vlo, vhi, slo, shi); err != nil {
		return nil, nil, nil, err
	}
	n := int(shi - slo)
	rawLen := int(s.offsets[vhi] - s.offsets[vlo])
	bb, _ := s.pool.Get().(*compBuf)
	if bb == nil {
		bb = &compBuf{}
	}
	if cap(bb.raw) < rawLen {
		bb.raw = make([]byte, rawLen) //abcdlint:ignore hotpath -- grow-once: pooled buffer, reallocates only when a larger block class first appears
	}
	if cap(bb.src) < n {
		bb.src = make([]uint32, n) //abcdlint:ignore hotpath -- grow-once: pooled buffer, reallocates only when a larger block class first appears
		bb.w = make([]float32, n)  //abcdlint:ignore hotpath -- grow-once: pooled buffer, see above
	}
	raw := bb.raw[:rawLen]
	src, w := bb.src[:n], bb.w[:n]
	if rawLen > 0 {
		if _, err := s.f.ReadAt(raw, s.dataStart+int64(s.offsets[vlo])); err != nil {
			return nil, nil, nil, fmt.Errorf("edgestore: compressed read: %w", err) //abcdlint:ignore hotpath -- error path: formats only when the file is unreadable and the run is failing
		}
	}
	idx := 0
	for v := vlo; v < vhi; v++ {
		deg := int(s.g.InOffset(v+1) - s.g.InOffset(v))
		prev := uint32(0)
		for i := 0; i < deg; i++ {
			delta, k := binary.Uvarint(raw)
			if k <= 0 {
				return nil, nil, nil, fmt.Errorf("edgestore: corrupt varint at vertex %d", v) //abcdlint:ignore hotpath -- error path: formats only on corrupt input
			}
			raw = raw[k:]
			prev += uint32(delta)
			src[idx+i] = prev
		}
		if s.unweighted {
			for i := 0; i < deg; i++ {
				w[idx+i] = 1
			}
		} else {
			if len(raw) < 4*deg {
				return nil, nil, nil, fmt.Errorf("edgestore: truncated weights at vertex %d", v) //abcdlint:ignore hotpath -- error path: formats only on corrupt input
			}
			for i := 0; i < deg; i++ {
				w[idx+i] = f32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			}
			raw = raw[4*deg:]
		}
		idx += deg
	}
	return src, w, func() { s.pool.Put(bb) }, nil
}

func (s *compSource) Bytes() int64 { return s.size }

func (s *compSource) Close() error { return s.f.Close() }

func f32bits(f float32) uint32     { return math.Float32bits(f) }
func f32frombits(b uint32) float32 { return math.Float32frombits(b) }
