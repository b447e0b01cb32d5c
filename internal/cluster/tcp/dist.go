// The -listen/-join distributed runtime: Serve runs node 0 and the
// cluster's coordinator against a plain GABS snapshot file and Join runs
// one joiner process. Unlike cluster.Run, which hosts every node inside
// one process, each process here hosts exactly one cluster.Node over a
// partial graph: it receives only its own blocks' slices of the
// snapshot's edge sections (positioned reads at SnapshotSectionLayout
// offsets — a joiner never sees the rest of the graph's edges). What
// this file adds is only what crossing processes needs: join/assign/
// section shipping, the joiner's answers to the coordinator's rounds
// (lane.go asks them), and value shipping.
package tcp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/checkpoint"
	"graphabcd/internal/cluster"
	"graphabcd/internal/core"
	"graphabcd/internal/graph"
	"graphabcd/internal/obslog"
	"graphabcd/internal/telemetry"
)

// DistConfig tunes a distributed run. Only Nodes and Algo are required.
type DistConfig struct {
	// Nodes is the total node count: one coordinator plus Nodes-1
	// joiners. The coordinator blocks until every joiner has arrived.
	Nodes int
	// Algo is the algorithm's registry name: pagerank (or pr) | sssp |
	// bfs | cc.
	Algo string
	// Source is the source vertex for sssp/bfs.
	Source uint32
	// BlockSize, WorkersPerNode, BatchSize, Epsilon, MaxUnacked and
	// RetryDeadline mean exactly what they mean in cluster.Config. A zero
	// WorkersPerNode, BatchSize, MaxUnacked or RetryDeadline takes
	// cluster.Config's default; a zero BlockSize is graph.DefaultBlockSize.
	// Epsilon has no default: 0 is literal (exact convergence), as in
	// cluster.Config.
	BlockSize      int
	WorkersPerNode int
	BatchSize      int
	Epsilon        float64
	MaxUnacked     int
	RetryDeadline  time.Duration
	// CheckpointDir enables cluster-wide fuzzy checkpoints (DESIGN.md
	// §12): the coordinator periodically has every node write its owned
	// state into this directory and commits a manifest once all nodes
	// ack. The path must resolve to the same shared filesystem on every
	// node — each node writes its own state file there, and a resuming
	// node reads all of them.
	CheckpointDir string
	// CheckpointInterval is the coordinator's checkpoint period (default
	// checkpoint.DefaultInterval when CheckpointDir is set).
	CheckpointInterval time.Duration
	// RunID names the checkpoint run; empty derives a stable id from the
	// algorithm and the identity triple, so re-serving the same snapshot
	// with the same shape overwrites the same run.
	RunID string
	// Resume restarts the whole cluster from a committed checkpoint: a
	// run id, or "latest" for the newest committed manifest in
	// CheckpointDir. The manifest's identity triple and node count must
	// match this run exactly.
	Resume string
	// Telemetry, when non-nil, receives the coordinator's wire gauges.
	Telemetry *telemetry.Registry
	// Cluster, when non-nil, receives the merged cluster telemetry: the
	// coordinator interleaves fStats rounds with its probe rounds and
	// folds every node's shipped delta into this snapshot (DESIGN.md
	// §13).
	Cluster *telemetry.ClusterStats
	// StatsEvery is the coordinator's telemetry aggregation period
	// (default 500ms when Cluster is set). A final round always runs
	// before termination, so the merged snapshot is complete even for
	// runs shorter than one period.
	StatsEvery time.Duration
	// Health, when non-nil, is driven through the run's readiness
	// transitions: ready once the node has joined and started, not-ready
	// while a checkpoint resume rewrites state, not-ready again at
	// shutdown.
	Health *telemetry.Health
}

// probeEvery is the coordinator's probe cadence over the control
// connections. Termination needs two consecutive all-quiet rounds, so it
// bounds the detection latency at roughly twice this.
const probeEvery = 2 * time.Millisecond

func (c DistConfig) checkpointInterval() time.Duration {
	if c.CheckpointInterval <= 0 {
		return checkpoint.DefaultInterval
	}
	return c.CheckpointInterval
}

func (c DistConfig) statsEvery() time.Duration {
	if c.StatsEvery <= 0 {
		return 500 * time.Millisecond
	}
	return c.StatsEvery
}

// DistResult is a completed distributed run. Exactly one of Float/Uint
// is populated, matching the algorithm's value type.
type DistResult struct {
	Algo  string
	Float []float64 // pr, sssp
	Uint  []uint64  // bfs, cc
	// BatchesSent totals the whole cluster's data batches (from the
	// final probe round).
	BatchesSent int64
	WallTime    time.Duration
	// Wire is the coordinator's own transport counter snapshot at run
	// end. Per-node wire stats for the whole cluster live in the
	// DistConfig.Cluster snapshot when aggregation is enabled.
	Wire WireStats
}

// Serve runs the coordinator: it accepts cfg.Nodes-1 joiners on ctrl,
// distributes to each its blocks' snapshot sections read positioned out
// of the plain snapshot at snapshotPath, participates as node 0, probes
// for global quiescence, and returns the collected values.
func Serve(ctx context.Context, ctrl net.Listener, snapshotPath string, cfg DistConfig) (*DistResult, error) {
	start := time.Now()
	if cfg.Nodes < 1 || cfg.Nodes > maxDistNodes {
		return nil, fmt.Errorf("tcp: serve needs Nodes in [1, %d], got %d", maxDistNodes, cfg.Nodes)
	}
	algo, err := algoCode(cfg.Algo)
	if err != nil {
		return nil, err
	}
	snap, err := openSnapshotSections(snapshotPath)
	if err != nil {
		return nil, err
	}
	defer snap.close()

	ccfg := cluster.Config{
		Nodes:          cfg.Nodes,
		BlockSize:      cfg.BlockSize,
		WorkersPerNode: cfg.WorkersPerNode,
		Epsilon:        cfg.Epsilon,
		BatchSize:      cfg.BatchSize,
		RetryDeadline:  cfg.RetryDeadline,
		MaxUnacked:     cfg.MaxUnacked,
	}
	if ccfg.BlockSize == 0 {
		ccfg.BlockSize = graph.DefaultBlockSize(snap.n)
	}
	if err := ccfg.Validate(); err != nil {
		return nil, err
	}
	// Every remaining zero knob takes cluster.Config's default here, once;
	// the assignment ships resolved values to the joiners.
	ccfg = ccfg.WithDefaults()
	var store checkpoint.Store
	if cfg.CheckpointDir != "" {
		if store, err = checkpoint.NewDirStore(cfg.CheckpointDir); err != nil {
			return nil, err
		}
	}
	plan, err := resolveCheckpointPlan(cfg, snap, ccfg.BlockSize, store)
	if err != nil {
		return nil, err
	}

	// Phase 1: collect joiners. Accept deadlines keep the wait
	// responsive to cancellation.
	joiners := make([]*ctrlConn, 0, cfg.Nodes-1)
	defer func() {
		for _, j := range joiners {
			_ = j.c.Close()
		}
	}()
	dataAddrs := make([]string, cfg.Nodes)
	for len(joiners) < cfg.Nodes-1 {
		if d, ok := ctrl.(*net.TCPListener); ok {
			_ = d.SetDeadline(time.Now().Add(200 * time.Millisecond))
		}
		c, err := ctrl.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				continue
			}
			return nil, fmt.Errorf("tcp: waiting for joiner %d/%d: %w", len(joiners)+1, cfg.Nodes-1, err)
		}
		cc := newCtrlConn(c)
		body, err := cc.expect(fJoin)
		if err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("tcp: joiner handshake: %w", err)
		}
		addr := string(body[1:])
		if len(addr) == 0 || len(addr) > maxCtrlAddr {
			_ = c.Close()
			return nil, fmt.Errorf("tcp: joiner advertised %d-byte data address", len(addr))
		}
		joiners = append(joiners, cc)
		dataAddrs[len(joiners)] = addr
		obslog.L().Info("joiner accepted",
			"event", "cluster.join", "node", len(joiners), "dataAddr", addr,
			"joined", len(joiners), "want", cfg.Nodes-1)
	}

	// Phase 2: the coordinator's own data listener, on the same host the
	// control listener is bound to so joiners can reach it.
	dataLn, selfAddr, err := listenSameHost(ctrl.Addr())
	if err != nil {
		return nil, err
	}
	dataAddrs[0] = selfAddr

	// Phase 3: assignment and section distribution.
	assign := distAssign{
		n: snap.n, m: snap.m,
		algo:   algo,
		source: cfg.Source,
		cfg:    ccfg,
		ckpt:   plan,
		addrs:  dataAddrs,
	}
	fail := func(err error) (*DistResult, error) {
		for _, j := range joiners {
			j.sendError(err)
		}
		_ = dataLn.Close()
		return nil, err
	}
	for i, j := range joiners {
		a := assign
		a.node = i + 1
		if err := j.write(appendAssign(newFrame(fAssign), a)); err != nil {
			return fail(fmt.Errorf("tcp: assigning node %d: %w", i+1, err))
		}
		if err := snap.sendSections(j, assign, i+1); err != nil {
			return fail(fmt.Errorf("tcp: sections for node %d: %w", i+1, err))
		}
	}
	selfAssign := assign
	selfAssign.node = 0
	g, err := snap.ownedGraph(selfAssign)
	if err != nil {
		return fail(err)
	}
	for i, j := range joiners {
		if _, err := j.expect(fReady); err != nil {
			return fail(fmt.Errorf("tcp: node %d never became ready: %w", i+1, err))
		}
	}

	// Phase 4: run. The coordinator is node 0 of the same data plane.
	listeners := make([]net.Listener, cfg.Nodes)
	listeners[0] = dataLn
	tr := New(listeners, dataAddrs, Options{Telemetry: cfg.Telemetry})
	for _, j := range joiners {
		if err := j.write(newFrame(fStart)); err != nil {
			return fail(fmt.Errorf("tcp: start: %w", err))
		}
	}
	obslog.L().Info("cluster assembled, starting run",
		"event", "cluster.start", "nodes", cfg.Nodes, "algo", cfg.Algo,
		"vertices", snap.n, "edges", snap.m)
	res, err := runDist(ctx, g, selfAssign, tr, distSide{
		health: cfg.Health, joiners: joiners, began: start,
		coord: cluster.Coordinator{Every: probeEvery, Sink: cfg.Cluster, StatsEvery: cfg.statsEvery()},
	})
	if err != nil {
		return fail(err)
	}
	return res, nil
}

// Join runs one joiner process: dial the coordinator, receive an
// assignment and this node's graph sections, participate until the
// coordinator declares quiescence, and ship the owned values back. It
// returns when the run completes (the coordinator holds the results).
func Join(ctx context.Context, coordAddr string, opts Options) error {
	c, err := (&net.Dialer{Timeout: 10 * time.Second}).DialContext(ctx, "tcp", coordAddr)
	if err != nil {
		return fmt.Errorf("tcp: joining %s: %w", coordAddr, err)
	}
	cc := newCtrlConn(c)
	defer func() { _ = c.Close() }()

	// The data listener binds the same interface the control connection
	// runs over, so the advertised address is reachable by every peer
	// that can reach the coordinator.
	dataLn, dataAddr, err := listenSameHost(c.LocalAddr())
	if err != nil {
		return err
	}
	started := false // the transport owns the listener once the run starts
	defer func() {
		if !started {
			_ = dataLn.Close()
		}
	}()
	if err := cc.write(append(newFrame(fJoin), dataAddr...)); err != nil {
		return fmt.Errorf("tcp: join handshake: %w", err)
	}

	body, err := cc.expect(fAssign)
	if err != nil {
		return fmt.Errorf("tcp: waiting for assignment: %w", err)
	}
	assign, err := decodeAssign(body[1:])
	if err != nil {
		cc.sendError(err)
		return err
	}
	obslog.L().Info("assignment received",
		"event", "cluster.assign", "node", assign.node, "nodes", assign.cfg.Nodes,
		"vertices", assign.n, "edges", assign.m)
	g, err := receiveSections(cc, assign)
	if err != nil {
		cc.sendError(err)
		return err
	}
	if err := cc.write(newFrame(fReady)); err != nil {
		return err
	}
	if _, err := cc.expect(fStart); err != nil {
		return fmt.Errorf("tcp: waiting for start: %w", err)
	}

	listeners := make([]net.Listener, assign.cfg.Nodes)
	listeners[assign.node] = dataLn
	tr := New(listeners, assign.addrs, opts)
	started = true
	_, err = runDist(ctx, g, assign, tr, distSide{health: opts.Health, cc: cc})
	return err
}

// listenSameHost opens an ephemeral TCP listener on the host part of
// addr and returns it with its advertisable address.
func listenSameHost(addr net.Addr) (net.Listener, string, error) {
	host, _, err := net.SplitHostPort(addr.String())
	if err != nil {
		return nil, "", fmt.Errorf("tcp: data listener host from %q: %w", addr, err)
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return nil, "", fmt.Errorf("tcp: data listener: %w", err)
	}
	_, port, err := net.SplitHostPort(ln.Addr().String())
	if err != nil {
		_ = ln.Close()
		return nil, "", err
	}
	return ln, net.JoinHostPort(host, port), nil
}

// distSide is the program-independent part of a distRun: a joiner has
// cc, the coordinator the joiners and its round settings.
type distSide struct {
	health *telemetry.Health // readiness transitions; may be nil
	cc     *ctrlConn         // joiner: the connection to the coordinator

	joiners []*ctrlConn
	coord   cluster.Coordinator // cadences and sink; lead adds the lanes
	began   time.Time           // Serve's entry, for DistResult.WallTime
}

// runDist dispatches on the assignment's algorithm code to the generic
// node runtime.
func runDist(ctx context.Context, g *graph.Graph, a distAssign, tr *Transport, side distSide) (*DistResult, error) {
	switch a.algo {
	case algoPR:
		return runDistProg[float64, float64](ctx, g, a, bcd.PageRank{}, tr, side)
	case algoSSSP:
		return runDistProg[float64, float64](ctx, g, a, bcd.SSSP{Source: a.source}, tr, side)
	case algoBFS:
		return runDistProg[uint64, uint64](ctx, g, a, bcd.BFS{Source: a.source}, tr, side)
	case algoCC:
		return runDistProg[uint64, uint64](ctx, g, a, bcd.CC{}, tr, side)
	}
	return nil, fmt.Errorf("tcp: unknown algorithm code %d", a.algo)
}

func runDistProg[V, M any](ctx context.Context, g *graph.Graph, a distAssign, prog bcd.Program[V, M], tr *Transport, side distSide) (*DistResult, error) {
	cfg := a.cfg
	cfg.Transport, cfg.Telemetry = tr, tr.opts.Telemetry
	nodes, err := cluster.NewNodes(g, prog, cfg, a.node, a.node+1)
	if err != nil {
		return nil, err
	}
	d := &distRun[V, M]{Node: nodes[0], distSide: side, a: a, tr: tr}
	if t := d.Tel.Tracer(); t != nil {
		// Node id as the Perfetto pid: merged per-node trace shards show
		// up as distinct process tracks, and the transport's flow ids
		// encode the sending node the same way.
		t.SetProcess(a.node, fmt.Sprintf("graphabcd-node%d", a.node))
	}
	if a.ckpt.dir != "" {
		if err := d.openCheckpoint(); err != nil {
			if d.cc != nil {
				d.cc.sendError(err)
			}
			d.tr.Close()
			return nil, err
		}
	}
	shutdown := d.start(ctx)
	defer shutdown()
	if d.cc == nil {
		return d.lead(ctx)
	}
	return nil, d.follow(ctx)
}

// distRun is one process's share of a -listen/-join run: the cluster
// node every runtime runs plus what only exists across processes — the
// control connections, telemetry and value shipping, and the node's
// checkpoint share (dist_ckpt.go).
type distRun[V, M any] struct {
	*cluster.Node[V, M]
	distSide
	a  distAssign
	tr *Transport

	// lastShipped is the cumulative NodeStats snapshot as of the last
	// fStats delta this node shipped (or, on the coordinator, folded into
	// its own sink). Only the control goroutine (follow/lead) touches it.
	lastShipped telemetry.NodeStats

	// ckpt is this node's checkpoint share, non-nil when the assignment
	// carries a checkpoint plan.
	ckpt *core.Share[V, M]
}

// start binds the transport to the node and launches it (Shared.Start);
// its shutdown closes the transport last. The node is ready — joined,
// assigned, state initialized or restored — once start returns.
func (d *distRun[V, M]) start(ctx context.Context) (shutdown func()) {
	d.tr.Bind(d.a.cfg.Nodes, d.Deliver)
	stop := d.Start(ctx)
	d.setReady(true, "running")
	lo, hi := d.BlockRange(d.ID)
	obslog.L().Info("dist node running",
		"event", "dist.start", "node", d.ID,
		"blocks", hi-lo, "workers", d.a.cfg.WorkersPerNode)
	return func() {
		d.setReady(false, "stopped")
		stop()
		d.tr.Close()
	}
}

func (d *distRun[V, M]) setReady(ready bool, reason string) {
	if d.health != nil {
		d.health.SetReady(ready, reason)
	}
}

// shipStatsDelta snapshots this node's cumulative telemetry — registry
// counters and histograms plus the transport's socket counters — and
// returns the delta since the last shipped snapshot, advancing the
// watermark. Only the control goroutine calls it.
func (d *distRun[V, M]) shipStatsDelta() telemetry.NodeStats {
	cur := d.Tel.CollectNodeStats(d.ID)
	cur.Wire = d.tr.WireStats()
	delta := cur.DeltaFrom(&d.lastShipped)
	d.lastShipped = cur
	return delta
}

// lead runs the cluster's coordinator on node 0, over a direct lane to
// this node and a control-connection lane to each joiner.
func (d *distRun[V, M]) lead(ctx context.Context) (*DistResult, error) {
	co := d.coord
	co.Lanes = []cluster.Lane{&cluster.Direct[V, M]{Node: d.Node, Share: d.ckpt, Stats: d.shipStatsDelta}}
	for i, j := range d.joiners {
		vlo, vhi := d.VertexRange(i + 1)
		co.Lanes = append(co.Lanes, &joinerLane[V]{ctrlConn: j, node: i + 1, vlo: vlo, vhi: vhi, values: d.Values})
	}
	co.Latch, co.Quiesced = d.Latch, func() bool { d.Stop(); return true }
	if d.ckpt != nil {
		co.Commit, co.Epoch, co.CkptEvery = d.ckpt.Commit, d.ckpt.Epoch, d.a.ckpt.interval
	}
	// A TCP run has no epoch budget, so the rounds end quiesced or with
	// an error.
	_, sent, err := co.Run(ctx)
	if err != nil {
		return nil, err
	}
	res := &DistResult{Algo: algoName(d.a.algo), BatchesSent: int64(sent), WallTime: time.Since(d.began), Wire: d.tr.WireStats()}
	// Every node's owned range now sits in this node's value array.
	switch vals := any(d.CollectValues()).(type) {
	case []float64:
		res.Float = vals
	case []uint64:
		res.Uint = vals
	}
	return res, nil
}

// follow is the joiner's side of the coordinator's rounds: answer them
// until fStop, then ship the owned values and wait for fDone. The read
// deadline keeps the loop responsive to cancellation and local engine
// failure; control frames are small single-segment writes, so a deadline
// firing mid-frame (which would desync the stream) needs the kernel to
// split a tens-of-bytes loopback write — treated as the connection loss
// it effectively is.
func (d *distRun[V, M]) follow(ctx context.Context) error {
	cc := d.cc
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := d.Err(); err != nil {
			cc.sendError(err)
			return err
		}
		_ = cc.c.SetReadDeadline(time.Now().Add(time.Second))
		body, err := cc.read()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return fmt.Errorf("tcp: control connection: %w", err)
		}
		var reply []byte
		switch body[0] {
		case fProbe:
			reply = appendProbeReply(newFrame(fProbeReply), d.Probe())
		case fStats:
			delta := d.shipStatsDelta()
			reply = telemetry.AppendNodeStats(newFrame(fStatsReply), &delta)
		case fCkpt:
			epoch, err := decodeEpoch(body[1:])
			if err == nil && d.ckpt == nil {
				err = errors.New("tcp: coordinator requested a checkpoint but the assignment carried no checkpoint plan")
			}
			// Capture on the control goroutine while the workers run —
			// that concurrency is the fuzziness. The ack promises only
			// that this node's state file is durable; the coordinator
			// commits the manifest once every node has promised.
			if err == nil {
				err = d.ckpt.Capture(epoch)
			}
			if err != nil {
				cc.sendError(err)
				return err
			}
			reply = appendEpoch(newFrame(fCkptAck), epoch)
		case fStop:
			d.Stop()
			_ = cc.c.SetReadDeadline(time.Time{})
			if err := d.sendValues(cc); err != nil {
				return err
			}
			if _, err := cc.expect(fDone); err != nil {
				return fmt.Errorf("tcp: waiting for done: %w", err)
			}
			return nil
		default:
			return fmt.Errorf("tcp: unexpected control frame %d mid-run", body[0])
		}
		if err := cc.write(reply); err != nil {
			return err
		}
	}
}

// sendValues streams the owned vertex values as fValues chunks of raw
// codec words followed by an fDone terminator. Only called after global
// quiescence, when no worker writes.
func (d *distRun[V, M]) sendValues(cc *ctrlConn) error {
	vlo, vhi := d.VertexRange(d.ID)
	const chunkVerts = 32 << 10
	raw := make([]uint64, chunkVerts*d.Values.Words())
	for base := vlo; base < vhi; base += chunkVerts {
		f := binary.LittleEndian.AppendUint64(newFrame(fValues), uint64(base))
		n := d.Values.SnapshotWords(int64(base), int64(min(base+chunkVerts, vhi)), raw)
		for _, w := range raw[:n] {
			f = binary.LittleEndian.AppendUint64(f, w)
		}
		if err := cc.write(f); err != nil {
			return err
		}
	}
	return cc.write(newFrame(fDone))
}

// snapshotSections is the coordinator's positioned-read view of a plain
// snapshot file.
type snapshotSections struct {
	f      *os.File
	n, m   int
	layout graph.SnapshotLayout
	inOff  []int64
	outOff []int64
}

func openSnapshotSections(path string) (*snapshotSections, error) {
	f, n, m, l, err := graph.OpenPlainSnapshot(path)
	if err != nil {
		return nil, err
	}
	s := &snapshotSections{f: f, n: n, m: m, layout: l}
	if n < 1 || n > maxDistVertices || m > maxDistEdges {
		err = fmt.Errorf("tcp: snapshot dimensions V=%d E=%d out of range", n, m)
	} else if s.inOff, err = s.readOffsets(l.InOff); err == nil {
		s.outOff, err = s.readOffsets(l.OutOff)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *snapshotSections) close() { _ = s.f.Close() }

// readOffsets preads one (n+1)-entry u64 offset section and validates
// the monotone [0, m] span FromSections will re-check on the far side.
// Its (n+1)*8 bytes are known to be in the file: OpenPlainSnapshot
// checked the file size against the layout.
func (s *snapshotSections) readOffsets(off int64) ([]int64, error) {
	raw := make([]byte, (s.n+1)*8)
	if _, err := s.f.ReadAt(raw, off); err != nil {
		return nil, fmt.Errorf("tcp: snapshot offsets at %d: %w", off, err)
	}
	out := make([]int64, s.n+1)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	if out[0] != 0 || out[s.n] != int64(s.m) {
		return nil, fmt.Errorf("tcp: snapshot offsets span [%d,%d], want [0,%d]", out[0], out[s.n], s.m)
	}
	for i := 0; i < s.n; i++ {
		if out[i] > out[i+1] {
			return nil, fmt.Errorf("tcp: snapshot offsets not monotone at %d", i)
		}
	}
	return out, nil
}

// nodeRanges computes one node's owned vertex and edge ranges under the
// assignment's partition.
func (s *snapshotSections) nodeRanges(a distAssign, node int) (vlo, vhi int, inLo, inHi, outLo, outHi int64) {
	nb := (s.n + a.cfg.BlockSize - 1) / a.cfg.BlockSize
	blo, bhi := core.BlockRange(nb, a.cfg.Nodes, node)
	if blo >= bhi {
		return 0, 0, 0, 0, 0, 0
	}
	vlo = blo * a.cfg.BlockSize
	vhi = min(bhi*a.cfg.BlockSize, s.n)
	return vlo, vhi, s.inOff[vlo], s.inOff[vhi], s.outOff[vlo], s.outOff[vhi]
}

// forEachSection walks the six per-node section slices in wire order:
// both offset arrays whole (the partial graph needs full CSR/CSC
// shape), then the owned in-edge slice of inSrc/inW and the owned
// out-edge slice of outDst/outPos.
func (s *snapshotSections) forEachSection(a distAssign, node int, fn func(sec byte, fileOff int64, elemSize int, elemBase, elemCount int64) error) error {
	_, _, inLo, inHi, outLo, outHi := s.nodeRanges(a, node)
	walk := []struct {
		sec       byte
		fileOff   int64
		elemSize  int
		base, cnt int64
	}{
		{secDistInOff, s.layout.InOff, 8, 0, int64(s.n + 1)},
		{secDistInSrc, s.layout.InSrc, 4, inLo, inHi - inLo},
		{secDistInW, s.layout.InW, 4, inLo, inHi - inLo},
		{secDistOutOff, s.layout.OutOff, 8, 0, int64(s.n + 1)},
		{secDistOutDst, s.layout.OutDst, 4, outLo, outHi - outLo},
		{secDistOutPos, s.layout.OutPos, 8, outLo, outHi - outLo},
	}
	for _, w := range walk {
		if err := fn(w.sec, w.fileOff, w.elemSize, w.base, w.cnt); err != nil {
			return err
		}
	}
	return nil
}

// sendSections streams one node's owned section slices to a joiner,
// chunked under the frame size cap and terminated by fDone.
func (s *snapshotSections) sendSections(cc *ctrlConn, a distAssign, node int) error {
	buf := make([]byte, maxFrameBody-64)
	err := s.forEachSection(a, node, func(sec byte, fileOff int64, elemSize int, elemBase, elemCount int64) error {
		bytesLeft := elemCount * int64(elemSize)
		pos := fileOff + elemBase*int64(elemSize)
		elem := elemBase
		for bytesLeft > 0 {
			take := min(bytesLeft, int64(len(buf)))
			take -= take % int64(elemSize)
			if _, err := s.f.ReadAt(buf[:take], pos); err != nil {
				return fmt.Errorf("tcp: snapshot section %d at %d: %w", sec, pos, err)
			}
			f := appendSectionChunk(newFrame(fSection), sectionChunk{sec: sec, elemBase: elem, payload: buf[:take]})
			if err := cc.write(f); err != nil {
				return err
			}
			pos += take
			elem += take / int64(elemSize)
			bytesLeft -= take
		}
		return nil
	})
	if err != nil {
		return err
	}
	return cc.write(newFrame(fDone))
}

// ownedGraph assembles the coordinator's own partial graph straight
// from the file — the same slices a joiner receives over the wire, via
// the same installer.
func (s *snapshotSections) ownedGraph(a distAssign) (*graph.Graph, error) {
	asm := newSectionAssembly(a)
	err := s.forEachSection(a, a.node, func(sec byte, fileOff int64, elemSize int, elemBase, elemCount int64) error {
		if elemCount == 0 {
			return nil
		}
		raw := make([]byte, elemCount*int64(elemSize))
		if _, err := s.f.ReadAt(raw, fileOff+elemBase*int64(elemSize)); err != nil {
			return fmt.Errorf("tcp: snapshot section %d: %w", sec, err)
		}
		return asm.install(sectionChunk{sec: sec, elemBase: elemBase, payload: raw})
	})
	if err != nil {
		return nil, err
	}
	return asm.assemble()
}

// sectionAssembly accumulates fSection chunks into the six section
// arrays and assembles the validated partial graph. Array sizes come
// from the assignment, whose dimensions decodeAssign range-checked at
// the protocol boundary.
type sectionAssembly struct {
	a      distAssign
	inOff  []int64
	inSrc  []uint32
	inW    []float32
	outOff []int64
	outDst []uint32
	outPos []int64
}

func newSectionAssembly(a distAssign) *sectionAssembly {
	return &sectionAssembly{
		a:      a,
		inOff:  make([]int64, a.n+1),
		inSrc:  make([]uint32, a.m),
		inW:    make([]float32, a.m),
		outOff: make([]int64, a.n+1),
		outDst: make([]uint32, a.m),
		outPos: make([]int64, a.m),
	}
}

// install places one chunk, bounds-checked against the declared
// dimensions.
func (asm *sectionAssembly) install(c sectionChunk) error {
	checkAligned := func(elemSize int, dstLen int) (int64, error) {
		if len(c.payload)%elemSize != 0 {
			return 0, fmt.Errorf("tcp: section %d chunk %d bytes, not %d-byte aligned", c.sec, len(c.payload), elemSize)
		}
		count := int64(len(c.payload) / elemSize)
		if c.elemBase+count > int64(dstLen) {
			return 0, fmt.Errorf("tcp: section %d chunk [%d,%d) exceeds %d entries", c.sec, c.elemBase, c.elemBase+count, dstLen)
		}
		return count, nil
	}
	switch c.sec {
	case secDistInOff, secDistOutOff, secDistOutPos:
		dst := asm.inOff
		if c.sec == secDistOutOff {
			dst = asm.outOff
		} else if c.sec == secDistOutPos {
			dst = asm.outPos
		}
		count, err := checkAligned(8, len(dst))
		if err != nil {
			return err
		}
		for i := int64(0); i < count; i++ {
			dst[c.elemBase+i] = int64(binary.LittleEndian.Uint64(c.payload[i*8:]))
		}
	case secDistInSrc, secDistOutDst:
		dst := asm.inSrc
		if c.sec == secDistOutDst {
			dst = asm.outDst
		}
		count, err := checkAligned(4, len(dst))
		if err != nil {
			return err
		}
		for i := int64(0); i < count; i++ {
			dst[c.elemBase+i] = binary.LittleEndian.Uint32(c.payload[i*4:])
		}
	case secDistInW:
		count, err := checkAligned(4, len(asm.inW))
		if err != nil {
			return err
		}
		for i := int64(0); i < count; i++ {
			asm.inW[c.elemBase+i] = math.Float32frombits(binary.LittleEndian.Uint32(c.payload[i*4:]))
		}
	default:
		return fmt.Errorf("tcp: unknown section id %d", c.sec)
	}
	return nil
}

func (asm *sectionAssembly) assemble() (*graph.Graph, error) {
	return graph.FromSections(asm.a.n, asm.a.m, asm.inOff, asm.inSrc, asm.inW, asm.outOff, asm.outDst, asm.outPos)
}

// receiveSections drains the coordinator's fSection stream (terminated
// by fDone) into an assembled partial graph.
func receiveSections(cc *ctrlConn, a distAssign) (*graph.Graph, error) {
	asm := newSectionAssembly(a)
	for {
		body, err := cc.read()
		if err != nil {
			return nil, fmt.Errorf("tcp: receiving sections: %w", err)
		}
		if body[0] == fDone {
			return asm.assemble()
		}
		if body[0] != fSection {
			return nil, fmt.Errorf("tcp: unexpected frame %d in section stream", body[0])
		}
		c, err := decodeSectionChunk(body[1:])
		if err != nil {
			return nil, err
		}
		if err := asm.install(c); err != nil {
			return nil, err
		}
	}
}
