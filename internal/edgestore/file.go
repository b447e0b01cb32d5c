package edgestore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"

	"graphabcd/internal/graph"
)

// File format (little-endian):
//
//	magic "GABE" | version u32 | n u64 | m u64
//	src   [m]u32
//	w     [m]f32 (bit pattern)
const (
	fileMagic   = "GABE"
	fileVersion = 1
	headerBytes = 4 + 4 + 8 + 8
)

// WriteFile spills g's static edge structure to path in the raw
// out-of-core format.
func WriteFile(g *graph.Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := writeHeader(bw, g); err != nil {
		return err
	}
	m := int64(g.NumEdges())
	var le = binary.LittleEndian
	var buf [4]byte
	srcs := g.InSrcs(0, m)
	for _, s := range srcs {
		le.PutUint32(buf[:], s)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	for _, w := range g.InWeightsRange(0, m) {
		le.PutUint32(buf[:], f32bits(w))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeHeader(w io.Writer, g *graph.Graph) error {
	var hdr [headerBytes]byte
	copy(hdr[:4], fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], fileVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(g.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(g.NumEdges()))
	_, err := w.Write(hdr[:])
	return err
}

func readHeader(f *os.File, g *graph.Graph) error {
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return err
	}
	if string(hdr[:4]) != fileMagic {
		return fmt.Errorf("edgestore: bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != fileVersion {
		return fmt.Errorf("edgestore: unsupported version %d", v)
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	m := binary.LittleEndian.Uint64(hdr[16:24])
	if int(n) != g.NumVertices() || int(m) != g.NumEdges() {
		return fmt.Errorf("edgestore: file is for V=%d E=%d, graph has V=%d E=%d",
			n, m, g.NumVertices(), g.NumEdges())
	}
	return nil
}

// OpenFile opens a raw out-of-core edge file written by WriteFile for the
// given graph. Each Block call issues one sequential positioned read per
// array.
func OpenFile(g *graph.Graph, path string) (_ Source, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = f.Close() // the validation error supersedes the close error
		}
	}()
	if err = readHeader(f, g); err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	m := int64(g.NumEdges())
	return &fileSource{g: g, f: f, size: fi.Size(),
		srcOff: headerBytes, wOff: headerBytes + 4*m}, nil
}

// fileSource preads vertex-aligned slot ranges out of any file that
// stores the inSrc and inW arrays as contiguous little-endian u32 runs —
// the raw GABE edge file and the plain graph snapshot both qualify, at
// different base offsets.
type fileSource struct {
	g      *graph.Graph
	f      *os.File
	size   int64
	srcOff int64     // file offset of inSrc[0]
	wOff   int64     // file offset of inW[0]
	pool   sync.Pool // *blockBuf
}

type blockBuf struct {
	raw []byte
	src []uint32
	w   []float32
}

func (s *fileSource) Block(vlo, vhi int, slo, shi int64) ([]uint32, []float32, func(), error) {
	if err := validateRange(s.g, vlo, vhi, slo, shi); err != nil {
		return nil, nil, nil, err
	}
	n := int(shi - slo)
	bb, _ := s.pool.Get().(*blockBuf)
	if bb == nil {
		bb = &blockBuf{}
	}
	if cap(bb.raw) < 4*n {
		bb.raw = make([]byte, 4*n) //abcdlint:ignore hotpath -- grow-once: pooled buffer, reallocates only when a larger block class first appears
		bb.src = make([]uint32, n) //abcdlint:ignore hotpath -- grow-once: pooled buffer, see above
		bb.w = make([]float32, n)  //abcdlint:ignore hotpath -- grow-once: pooled buffer, see above
	}
	bb.src, bb.w = bb.src[:n], bb.w[:n]

	if err := s.readU32s(s.srcOff+4*slo, bb.raw[:4*n], bb.src); err != nil {
		return nil, nil, nil, err
	}
	if err := s.readF32s(s.wOff+4*slo, bb.raw[:4*n], bb.w); err != nil {
		return nil, nil, nil, err
	}
	return bb.src, bb.w, func() { s.pool.Put(bb) }, nil
}

func (s *fileSource) readU32s(off int64, raw []byte, out []uint32) error {
	if _, err := s.f.ReadAt(raw, off); err != nil {
		return fmt.Errorf("edgestore: read at %d: %w", off, err) //abcdlint:ignore hotpath -- error path: formats only when the file is unreadable and the run is failing
	}
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(raw[4*i:])
	}
	return nil
}

func (s *fileSource) readF32s(off int64, raw []byte, out []float32) error {
	if _, err := s.f.ReadAt(raw, off); err != nil {
		return fmt.Errorf("edgestore: read at %d: %w", off, err) //abcdlint:ignore hotpath -- error path: formats only when the file is unreadable and the run is failing
	}
	for i := range out {
		out[i] = f32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return nil
}

func (s *fileSource) Bytes() int64 { return s.size }

func (s *fileSource) Close() error { return s.f.Close() }
