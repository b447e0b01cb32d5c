// Control-plane protocol for the -listen/-join distributed runtime: the
// coordinator accepts one control connection per joiner and drives the
// whole run over it — join, assignment, graph section distribution,
// start, quiescence probing, and value collection. Every message is one
// frame (frame.go); payload layouts are fixed-width little-endian like
// the envelope codec in internal/cluster/wire.go.
package tcp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"time"

	"graphabcd/internal/binfmt"
	"graphabcd/internal/checkpoint"
	"graphabcd/internal/cluster"
)

// Distributed-graph sanity bounds: a coordinator is operator-provided,
// not hostile, but its header still caps what a joiner will allocate.
const (
	maxDistVertices = 1 << 31
	maxDistEdges    = 1 << 35
	maxDistNodes    = 1 << 12
	maxCtrlAddr     = 256
)

// Section ids carried in fSection frames, in coordinator send order.
const (
	secDistInOff byte = iota
	secDistInSrc
	secDistInW
	secDistOutOff
	secDistOutDst
	secDistOutPos
	numDistSections
)

// Algorithm codes carried in fAssign.
const (
	algoPR byte = iota + 1
	algoSSSP
	algoBFS
	algoCC
)

// algoCode maps a registry name onto its assignment code; "pr" stays
// valid, and the code (not the spelling) names the checkpoint program.
func algoCode(name string) (byte, error) {
	switch name {
	case "pagerank", "pr":
		return algoPR, nil
	case "sssp":
		return algoSSSP, nil
	case "bfs":
		return algoBFS, nil
	case "cc":
		return algoCC, nil
	}
	return 0, fmt.Errorf("tcp: algorithm %q does not support distributed mode (pick pagerank, sssp, bfs, or cc)", name)
}

func algoName(code byte) string {
	switch code {
	case algoPR:
		return "pr"
	case algoSSSP:
		return "sssp"
	case algoBFS:
		return "bfs"
	case algoCC:
		return "cc"
	}
	return fmt.Sprintf("algo%d", code)
}

// ctrlConn is one buffered control connection; reads and writes are
// whole frames.
type ctrlConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func newCtrlConn(c net.Conn) *ctrlConn {
	return &ctrlConn{c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 64<<10)}
}

func (cc *ctrlConn) write(frame []byte) error {
	if _, err := cc.bw.Write(sealFrame(frame)); err != nil {
		return err
	}
	return cc.bw.Flush()
}

// read returns the next frame body. An fError frame is surfaced as an
// error carrying the peer's message — the protocol's failure channel.
func (cc *ctrlConn) read() ([]byte, error) {
	body, err := readFrame(cc.br)
	if err != nil {
		return nil, err
	}
	if body[0] == fError {
		return nil, fmt.Errorf("tcp: peer failed: %s", string(body[1:]))
	}
	return body, nil
}

// expect reads the next frame and requires the given type.
func (cc *ctrlConn) expect(typ byte) ([]byte, error) {
	body, err := cc.read()
	if err != nil {
		return nil, err
	}
	if body[0] != typ {
		return nil, fmt.Errorf("tcp: control protocol desync: frame type %d, want %d", body[0], typ)
	}
	return body, nil
}

// sendError best-effort reports a fatal error to the peer before the
// connection dies.
func (cc *ctrlConn) sendError(err error) {
	f := newFrame(fError)
	f = append(f, err.Error()...)
	_ = cc.write(f)
}

// distAssign is the coordinator's complete run description for one
// joiner: identity, topology, algorithm, engine tuning, and the data
// addresses of every node.
type distAssign struct {
	node   int
	n, m   int
	algo   byte
	source uint32
	// cfg is the engine tuning every node runs under, defaults already
	// resolved by the coordinator (cluster.Config.WithDefaults): Nodes,
	// BlockSize, WorkersPerNode, BatchSize, MaxUnacked, Epsilon and
	// RetryDeadline travel; the rest is per-process.
	cfg   cluster.Config
	ckpt  ckptPlan
	addrs []string
}

// maxCtrlDir bounds the checkpoint directory path in an assignment.
const maxCtrlDir = 4096

func appendAssign(f []byte, a distAssign) []byte {
	f = binary.LittleEndian.AppendUint32(f, uint32(a.node))
	f = binary.LittleEndian.AppendUint32(f, uint32(a.cfg.Nodes))
	f = binary.LittleEndian.AppendUint64(f, uint64(a.n))
	f = binary.LittleEndian.AppendUint64(f, uint64(a.m))
	f = binary.LittleEndian.AppendUint32(f, uint32(a.cfg.BlockSize))
	f = binary.LittleEndian.AppendUint32(f, uint32(a.cfg.WorkersPerNode))
	f = binary.LittleEndian.AppendUint32(f, uint32(a.cfg.BatchSize))
	f = binary.LittleEndian.AppendUint32(f, uint32(int32(a.cfg.MaxUnacked)))
	f = append(f, a.algo)
	f = binary.LittleEndian.AppendUint32(f, a.source)
	f = binary.LittleEndian.AppendUint64(f, uint64(int64(a.cfg.RetryDeadline)))
	f = binary.LittleEndian.AppendUint64(f, math.Float64bits(a.cfg.Epsilon))
	f = binary.LittleEndian.AppendUint64(f, uint64(int64(a.ckpt.interval)))
	f = binary.LittleEndian.AppendUint64(f, a.ckpt.resumeEpoch)
	f = binary.LittleEndian.AppendUint16(f, uint16(len(a.ckpt.dir)))
	f = append(f, a.ckpt.dir...)
	f = binary.LittleEndian.AppendUint16(f, uint16(len(a.ckpt.runID)))
	f = append(f, a.ckpt.runID...)
	for _, addr := range a.addrs {
		f = binary.LittleEndian.AppendUint16(f, uint16(len(addr)))
		f = append(f, addr...)
	}
	return f
}

// decodeAssign parses and validates an fAssign body (type byte removed).
// Every decoded size is range-checked here, at the boundary, before any
// downstream code allocates from it.
func decodeAssign(b []byte) (distAssign, error) {
	var a distAssign
	const fixed = 4 + 4 + 8 + 8 + 4 + 4 + 4 + 4 + 1 + 4 + 8 + 8 + 8 + 8
	if len(b) < fixed {
		return a, fmt.Errorf("tcp: assign frame %d bytes, want at least %d", len(b), fixed)
	}
	a.node = int(binary.LittleEndian.Uint32(b[0:]))
	a.cfg.Nodes = int(binary.LittleEndian.Uint32(b[4:]))
	a.n = int(binary.LittleEndian.Uint64(b[8:]))
	a.m = int(binary.LittleEndian.Uint64(b[16:]))
	a.cfg.BlockSize = int(binary.LittleEndian.Uint32(b[24:]))
	a.cfg.WorkersPerNode = int(binary.LittleEndian.Uint32(b[28:]))
	a.cfg.BatchSize = int(binary.LittleEndian.Uint32(b[32:]))
	a.cfg.MaxUnacked = int(int32(binary.LittleEndian.Uint32(b[36:]))) // signed: negative means unbounded
	a.algo = b[40]
	a.source = binary.LittleEndian.Uint32(b[41:])
	a.cfg.RetryDeadline = time.Duration(binary.LittleEndian.Uint64(b[45:]))
	a.cfg.Epsilon = math.Float64frombits(binary.LittleEndian.Uint64(b[53:]))
	a.ckpt.interval = time.Duration(binary.LittleEndian.Uint64(b[61:]))
	a.ckpt.resumeEpoch = binary.LittleEndian.Uint64(b[69:])
	switch {
	case a.cfg.Nodes < 1 || a.cfg.Nodes > maxDistNodes:
		return a, fmt.Errorf("tcp: assign nodes %d outside [1, %d]", a.cfg.Nodes, maxDistNodes)
	case a.node < 0 || a.node >= a.cfg.Nodes:
		return a, fmt.Errorf("tcp: assign node id %d outside [0, %d)", a.node, a.cfg.Nodes)
	case a.n < 1 || a.n > maxDistVertices:
		return a, fmt.Errorf("tcp: assign vertex count %d outside [1, %d]", a.n, maxDistVertices)
	case a.m < 0 || a.m > maxDistEdges:
		return a, fmt.Errorf("tcp: assign edge count %d outside [0, %d]", a.m, maxDistEdges)
	case a.cfg.BlockSize < 1 || a.cfg.BlockSize > a.n:
		return a, fmt.Errorf("tcp: assign block size %d outside [1, %d]", a.cfg.BlockSize, a.n)
	case a.cfg.WorkersPerNode < 1 || a.cfg.WorkersPerNode > 1024:
		return a, fmt.Errorf("tcp: assign workers per node %d outside [1, 1024]", a.cfg.WorkersPerNode)
	case a.cfg.BatchSize < 1 || a.cfg.BatchSize > 1<<20:
		return a, fmt.Errorf("tcp: assign batch size %d outside [1, 1<<20]", a.cfg.BatchSize)
	case a.cfg.MaxUnacked < -1 || a.cfg.MaxUnacked > 1<<20:
		return a, fmt.Errorf("tcp: assign send window %d outside [-1, 1<<20]", a.cfg.MaxUnacked)
	case a.cfg.RetryDeadline < 0:
		return a, fmt.Errorf("tcp: assign negative retry deadline %v", a.cfg.RetryDeadline)
	case !(a.cfg.Epsilon >= 0):
		return a, fmt.Errorf("tcp: assign epsilon %g is negative or NaN", a.cfg.Epsilon)
	case a.ckpt.interval < 0:
		return a, fmt.Errorf("tcp: assign negative checkpoint interval %v", a.ckpt.interval)
	}
	rest := b[fixed:]
	var err error
	if a.ckpt.dir, rest, err = takeString(rest, maxCtrlDir, "checkpoint dir"); err != nil {
		return a, err
	}
	if a.ckpt.runID, rest, err = takeString(rest, 128, "checkpoint run id"); err != nil {
		return a, err
	}
	switch {
	case a.ckpt.runID != "" && !checkpoint.ValidRunID(a.ckpt.runID):
		return a, fmt.Errorf("tcp: assign checkpoint run id %q invalid", a.ckpt.runID)
	case a.ckpt.dir == "" && (a.ckpt.runID != "" || a.ckpt.interval > 0 || a.ckpt.resumeEpoch > 0):
		return a, fmt.Errorf("tcp: assign has checkpoint plan but no store directory")
	case a.ckpt.resumeEpoch > 0 && a.ckpt.runID == "":
		return a, fmt.Errorf("tcp: assign resumes epoch %d without a run id", a.ckpt.resumeEpoch)
	}
	a.addrs = make([]string, 0, binfmt.PresizeCap(a.cfg.Nodes, 16))
	for len(a.addrs) < a.cfg.Nodes {
		if len(rest) < 2 {
			return a, fmt.Errorf("tcp: assign truncated at address %d/%d", len(a.addrs), a.cfg.Nodes)
		}
		alen := int(binary.LittleEndian.Uint16(rest))
		if alen < 1 || alen > maxCtrlAddr || len(rest) < 2+alen {
			return a, fmt.Errorf("tcp: assign address %d length %d invalid", len(a.addrs), alen)
		}
		a.addrs = binfmt.GrowEarned(a.addrs, 1, a.cfg.Nodes)
		a.addrs = append(a.addrs, string(rest[2:2+alen]))
		rest = rest[2+alen:]
	}
	if len(rest) != 0 {
		return a, fmt.Errorf("tcp: assign has %d trailing bytes", len(rest))
	}
	return a, nil
}

// takeString consumes one u16-length-prefixed string from rest; empty is
// allowed, anything over maxLen is refused at the boundary.
func takeString(rest []byte, maxLen int, what string) (string, []byte, error) {
	if len(rest) < 2 {
		return "", nil, fmt.Errorf("tcp: assign truncated before %s", what)
	}
	n := int(binary.LittleEndian.Uint16(rest))
	if n > maxLen || len(rest) < 2+n {
		return "", nil, fmt.Errorf("tcp: assign %s length %d invalid", what, n)
	}
	return string(rest[2 : 2+n]), rest[2+n:], nil
}

// appendEpoch / decodeEpoch carry the u64 checkpoint epoch of fCkpt and
// fCkptAck frames.
func appendEpoch(f []byte, epoch uint64) []byte {
	return binary.LittleEndian.AppendUint64(f, epoch)
}

func decodeEpoch(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("tcp: checkpoint frame %d bytes, want 8", len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}

// sectionChunk is one fSection payload: a byte range of one snapshot
// section, addressed by element index so the receiver can place slices
// of the edge arrays at their owned offsets.
type sectionChunk struct {
	sec      byte
	elemBase int64
	payload  []byte
}

func appendSectionChunk(f []byte, c sectionChunk) []byte {
	f = append(f, c.sec)
	f = binary.LittleEndian.AppendUint64(f, uint64(c.elemBase))
	return append(f, c.payload...)
}

func decodeSectionChunk(b []byte) (sectionChunk, error) {
	var c sectionChunk
	if len(b) < 9 {
		return c, fmt.Errorf("tcp: section frame %d bytes, want at least 9", len(b))
	}
	c.sec = b[0]
	if c.sec >= numDistSections {
		return c, fmt.Errorf("tcp: unknown section id %d", c.sec)
	}
	c.elemBase = int64(binary.LittleEndian.Uint64(b[1:]))
	if c.elemBase < 0 {
		return c, fmt.Errorf("tcp: negative section base %d", c.elemBase)
	}
	c.payload = b[9:]
	return c, nil
}

// appendProbeReply / decodeProbeReply carry a cluster.Probe's sent,
// applied, inflight and quiet; a joiner's failure count is always 0.
func appendProbeReply(f []byte, r cluster.Probe) []byte {
	f = binary.LittleEndian.AppendUint64(f, r.Sent)
	f = binary.LittleEndian.AppendUint64(f, r.Applied)
	f = binary.LittleEndian.AppendUint64(f, uint64(r.Inflight))
	q := byte(0)
	if r.Quiet {
		q = 1
	}
	return append(f, q)
}

func decodeProbeReply(b []byte) (cluster.Probe, error) {
	var r cluster.Probe
	if len(b) != 25 {
		return r, fmt.Errorf("tcp: probe reply %d bytes, want 25", len(b))
	}
	r.Sent = binary.LittleEndian.Uint64(b[0:])
	r.Applied = binary.LittleEndian.Uint64(b[8:])
	r.Inflight = int64(binary.LittleEndian.Uint64(b[16:]))
	r.Quiet = b[24] == 1
	return r, nil
}

// valuesChunk is one fValues payload: a contiguous run of vertex values
// as raw codec words.
type valuesChunk struct {
	vlo   int64
	words []byte // count*codecWords little-endian u64s
}

func decodeValuesChunk(b []byte) (valuesChunk, error) {
	var c valuesChunk
	if len(b) < 8 {
		return c, fmt.Errorf("tcp: values frame %d bytes, want at least 8", len(b))
	}
	c.vlo = int64(binary.LittleEndian.Uint64(b[0:]))
	if c.vlo < 0 {
		return c, fmt.Errorf("tcp: negative values base %d", c.vlo)
	}
	if len(b[8:])%8 != 0 {
		return c, fmt.Errorf("tcp: values payload %d bytes, not word-aligned", len(b[8:]))
	}
	c.words = b[8:]
	return c, nil
}
