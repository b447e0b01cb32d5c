package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"graphabcd"
	"graphabcd/internal/checkpoint"
	"graphabcd/internal/cluster/tcp"
	"graphabcd/internal/sched"
	"graphabcd/internal/serve"
	"graphabcd/internal/telemetry"
)

// The layer probes time calls into each layer's public functions on small
// fixed inputs. They run in every traced run, whatever the workload, so
// every per-layer metric of BENCHMARK.json is a number measured in that
// run; a workload that exercises a layer itself overrides the probe's
// value with its own (see runOne). Probe inputs are generated in-process:
// a traced run reports no peak RSS, so there is nothing to keep clean.
const (
	probeGraphScale, probeGraphScaleSmoke = 15, 11 // graph.* probes
	probeJobScale, probeJobScaleSmoke     = 13, 10 // probes that run single-node jobs
	probeDistScale, probeDistScaleSmoke   = 10, 8  // two-node probes: ~20x the time per edge
	probeGridSide                         = 64
	probeSchedBlocks                      = 1024
	probeSchedOps                         = 20000
	probeServeFlows, probeServeJobs       = 30, 6
)

// timeIt returns the median wall seconds of reps calls to f.
func timeIt(reps int, f func() error) (float64, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}

func runProbes(ctx context.Context, e *env, opt options) (metricSet, error) {
	out := metricSet{}
	dir := filepath.Join(e.work, "probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	graphScale, jobScale, distScale := probeGraphScale, probeJobScale, probeDistScale
	if opt.smoke {
		graphScale, jobScale, distScale = probeGraphScaleSmoke, probeJobScaleSmoke, probeDistScaleSmoke
	}
	big, err := graphabcd.RMAT(graphabcd.DefaultRMAT(graphScale, rmatEdgeFactor, opt.seed))
	if err != nil {
		return nil, err
	}
	small, err := graphabcd.RMAT(graphabcd.DefaultRMAT(jobScale, rmatEdgeFactor, opt.seed))
	if err != nil {
		return nil, err
	}
	smallPath := filepath.Join(dir, "small.gabs")
	if err := graphabcd.Save(smallPath, small); err != nil {
		return nil, err
	}
	tiny, err := graphabcd.RMAT(graphabcd.DefaultRMAT(distScale, rmatEdgeFactor, opt.seed))
	if err != nil {
		return nil, err
	}
	tinyPath := filepath.Join(dir, "tiny.gabs")
	if err := graphabcd.Save(tinyPath, tiny); err != nil {
		return nil, err
	}
	for _, probe := range []func() error{
		func() error { return probeGraph(out, dir, big) },
		func() error { return probeEdgeStores(ctx, out, dir, small, smallPath) },
		func() error { return probeSched(ctx, out, opt) },
		func() error { return probeCluster(ctx, out, tiny) },
		func() error { return probeTCP(ctx, out, tiny, tinyPath) },
		func() error { return probeCheckpoint(ctx, out, dir, small) },
		func() error { return probeServeDirect(out, dir) },
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	if opt.workload != "serve_mix" { // serve_mix reports serve.* from its own run
		if err := probeServeSession(ctx, out, e, opt); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeGraph times the graph layer's file paths both ways on one graph:
// snapshot save and load, compressed-snapshot load, text load, and a
// build from the edge list.
func probeGraph(out metricSet, dir string, g *graphabcd.Graph) error {
	snap, gabz, text := filepath.Join(dir, "g.gabs"), filepath.Join(dir, "g.gabz"), filepath.Join(dir, "g.el")
	var err error
	if out["graph.save_snapshot_s"], err = timeIt(3, func() error { return graphabcd.Save(snap, g) }); err != nil {
		return err
	}
	load := func(path string) func() error {
		return func() error { _, err := graphabcd.Load(path); return err }
	}
	if out["graph.load_snapshot_s"], err = timeIt(5, load(snap)); err != nil {
		return err
	}
	out["graph.load_snapshot_meps"] = float64(g.NumEdges()) / 1e6 / out["graph.load_snapshot_s"]
	if err := graphabcd.Save(gabz, g); err != nil {
		return err
	}
	if out["graph.load_gabz_s"], err = timeIt(3, load(gabz)); err != nil {
		return err
	}
	if err := graphabcd.Save(text, g); err != nil {
		return err
	}
	if out["graph.load_text_s"], err = timeIt(2, load(text)); err != nil {
		return err
	}
	edges := g.Edges()
	if out["graph.build_s"], err = timeIt(3, func() error {
		b := graphabcd.NewGraphBuilder(g.NumVertices())
		b.NewShard().AddEdges(edges)
		_, err := b.Build()
		return err
	}); err != nil {
		return err
	}
	out["graph.resident_bytes"] = float64(g.MemoryBytes())
	return nil
}

// probeEdgeStores runs the same PageRank job over each EdgeSource kind.
// No end-to-end workload uses a non-memory source; the rows exist so the
// ROADMAP item 3 decision (keep or delete two formats) has data.
func probeEdgeStores(ctx context.Context, out metricSet, dir string, g *graphabcd.Graph, snapPath string) error {
	filePath, compPath := filepath.Join(dir, "edges.bin"), filepath.Join(dir, "edges.cmp")
	if err := graphabcd.WriteEdgeFile(g, filePath); err != nil {
		return err
	}
	if err := graphabcd.WriteCompressedEdges(g, compPath); err != nil {
		return err
	}
	kinds := []struct {
		metric string
		open   func() (graphabcd.EdgeSource, error)
	}{
		{"edgestore.inmem_job_s", func() (graphabcd.EdgeSource, error) { return graphabcd.InMemoryEdges(g), nil }},
		{"edgestore.snapshot_job_s", func() (graphabcd.EdgeSource, error) { return graphabcd.OpenSnapshotEdges(g, snapPath) }},
		{"edgestore.file_job_s", func() (graphabcd.EdgeSource, error) { return graphabcd.OpenEdgeFile(g, filePath) }},
		{"edgestore.compressed_job_s", func() (graphabcd.EdgeSource, error) { return graphabcd.OpenCompressedEdges(g, compPath) }},
	}
	rt := graphabcd.NewRuntime()
	for _, k := range kinds {
		src, err := k.open()
		if err != nil {
			return fmt.Errorf("%s: %w", k.metric, err)
		}
		cfg := engineConfig(pagerankBlock(g), graphabcd.Cyclic)
		cfg.Edges = src
		t, err := timeIt(2, func() error {
			_, err := runPlainJob(ctx, rt, g, "pagerank", cfg)
			return err
		})
		closeErr := src.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", k.metric, err)
		}
		if closeErr != nil {
			return fmt.Errorf("%s: close: %w", k.metric, closeErr)
		}
		out[k.metric] = t
	}
	return nil
}

// probeSched times one pick (Next, Done, re-Activate) at 1024 blocks with
// every block active and with 1% active, for both selection rules, and
// compares the rules' work-to-converge on a grid.
func probeSched(ctx context.Context, out metricSet, opt options) error {
	for _, c := range []struct {
		metric string
		policy sched.Policy
		active int
	}{
		{"sched.next_ns_dense_cyclic", sched.Cyclic, probeSchedBlocks},
		{"sched.next_ns_dense_priority", sched.Priority, probeSchedBlocks},
		{"sched.next_ns_sparse_cyclic", sched.Cyclic, probeSchedBlocks / 100},
		{"sched.next_ns_sparse_priority", sched.Priority, probeSchedBlocks / 100},
	} {
		st := sched.NewState(probeSchedBlocks)
		stride := probeSchedBlocks / c.active
		for b := 0; b < probeSchedBlocks; b += stride {
			st.Activate(b, float64(1+b%7))
		}
		s, err := sched.New(c.policy, st, opt.seed)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < probeSchedOps; i++ {
			b, ok := s.Next()
			if !ok {
				return fmt.Errorf("%s: scheduler found no active block", c.metric)
			}
			st.Done(b)
			st.Activate(b, float64(1+i%7))
		}
		out[c.metric] = float64(time.Since(t0)) / probeSchedOps
	}

	grid, err := graphabcd.Grid(probeGridSide, probeGridSide, gridMaxWeight, opt.seed)
	if err != nil {
		return err
	}
	rt := graphabcd.NewRuntime()
	epochs := func(p graphabcd.Policy) (float64, error) {
		var xs []float64
		for i := 0; i < 3; i++ {
			stats, err := runPlainJob(ctx, rt, grid, "sssp", engineConfig(gridBlock, p), graphabcd.WithSource(0))
			if err != nil {
				return 0, err
			}
			xs = append(xs, stats.Epochs)
		}
		return median(xs), nil
	}
	pri, err := epochs(graphabcd.Priority)
	if err != nil {
		return err
	}
	cyc, err := epochs(graphabcd.Cyclic)
	if err != nil {
		return err
	}
	out["sched.priority_epochs_ratio"] = pri / cyc
	return nil
}

// probeCluster runs PageRank on the in-process two-node engine — the one
// ROADMAP item 2 means to delete; this row is its guard until then.
func probeCluster(ctx context.Context, out metricSet, g *graphabcd.Graph) error {
	rt := graphabcd.NewRuntime()
	var walls, sent, retried []float64
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		h, err := rt.Run(ctx, graphabcd.NewJobSpec("pagerank", g, graphabcd.WithClusterConfig(graphabcd.ClusterConfig{
			Nodes: 2, BlockSize: pagerankBlock(g), WorkersPerNode: distWorkersPerNode,
		})))
		if err != nil {
			return err
		}
		res, err := h.Wait(ctx)
		if err != nil {
			return err
		}
		if res.Cluster == nil {
			return fmt.Errorf("cluster job returned no cluster statistics")
		}
		walls = append(walls, time.Since(t0).Seconds())
		sent = append(sent, float64(res.Cluster.BatchesSent))
		retried = append(retried, float64(res.Cluster.BatchesRetried))
	}
	out["cluster.inproc_job_s_p50"] = median(walls)
	out["cluster.batches_sent"] = median(sent)
	out["cluster.batches_retried"] = median(retried)
	return nil
}

// probeTCP runs the distributed runtime's coordinator and joiner in this
// process over loopback and reads the counts tcp.Serve returns.
func probeTCP(ctx context.Context, out metricSet, g *graphabcd.Graph, snapPath string) error {
	var serveWall, around, batches, wire, frames, drops, reconnects, highWater []float64
	for i := 0; i < 2 && ctx.Err() == nil; i++ {
		ctrl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		joined := make(chan error, 1)
		t0 := time.Now()
		//abcdlint:ignore goroutine -- the joiner half of one loopback run: tcp.Join returns when the coordinator finishes, and its result is received below
		go func() { joined <- tcp.Join(ctx, ctrl.Addr().String(), tcp.Options{}) }()
		res, err := tcp.Serve(ctx, ctrl, snapPath, tcp.DistConfig{
			Nodes: 2, Algo: "pr", BlockSize: pagerankBlock(g), WorkersPerNode: distWorkersPerNode,
			Cluster: telemetry.NewClusterStats(),
		})
		joinErr := <-joined
		total := time.Since(t0).Seconds()
		_ = ctrl.Close() // Serve may have closed it already
		if err != nil {
			return err
		}
		if joinErr != nil {
			return joinErr
		}
		serveWall = append(serveWall, res.WallTime.Seconds())
		around = append(around, total-res.WallTime.Seconds())
		batches = append(batches, float64(res.BatchesSent))
		wire = append(wire, float64(res.Wire.BytesSent))
		frames = append(frames, float64(res.Wire.FramesSent))
		drops = append(drops, float64(res.Wire.Drops))
		reconnects = append(reconnects, float64(res.Wire.Reconnects))
		highWater = append(highWater, float64(res.Wire.QueueHighWater))
	}
	out["tcp.serve_wall_s_p50"] = median(serveWall)
	out["tcp.spawn_join_s_p50"] = median(around)
	out["tcp.batches_sent"] = median(batches)
	out["tcp.wire_bytes_sent"] = median(wire)
	out["tcp.frames_sent"] = median(frames)
	out["tcp.ack_drops"] = median(drops)
	out["tcp.reconnects"] = sum(reconnects)
	out["tcp.queue_high_water"] = percentile(highWater, 100)
	out["tcp.bytes_per_batch"] = 0
	if b := median(batches); b > 0 {
		out["tcp.bytes_per_batch"] = median(wire) / b
	}
	return nil
}

// probeCheckpoint measures what checkpointing costs a PageRank job (the
// same job with and without Checkpoint), what one capture takes, what
// resuming from a cut run takes, and the codec alone on a state of the
// graph's size.
func probeCheckpoint(ctx context.Context, out metricSet, dir string, g *graphabcd.Graph) error {
	rt := graphabcd.NewRuntime()
	ckDir := filepath.Join(dir, "ckpt")
	base := engineConfig(pagerankBlock(g), graphabcd.Cyclic)
	tr := newTracer() // turns the jobs' stage histograms on; its spans are dropped
	var plain, with, captures []float64
	var ckEpochs, ckBytes float64
	const every = 5 * time.Millisecond
	for i := 0; i < 3; i++ {
		var rec jobRecord
		if _, err := runEngineJob(ctx, rt, g, "pagerank", base, nil, tr, spanRef{}, "", &rec); err != nil {
			return err
		}
		plain = append(plain, rec.stats.WallTime.Seconds())
		cfg := base
		cfg.Checkpoint.Dir, cfg.Checkpoint.Interval, cfg.Checkpoint.RunID = ckDir, every, fmt.Sprintf("probe-%d", i)
		rec = jobRecord{}
		if _, err := runEngineJob(ctx, rt, g, "pagerank", cfg, nil, tr, spanRef{}, "", &rec); err != nil {
			return err
		}
		with = append(with, rec.stats.WallTime.Seconds())
		ckEpochs += float64(rec.stats.CkptEpochs)
		ckBytes += float64(rec.stats.CkptBytes)
		if rec.captureMs > 0 {
			captures = append(captures, rec.captureMs)
		}
	}
	out["checkpoint.overhead_ratio"] = median(with) / median(plain)
	out["checkpoint.epochs_per_job"] = ckEpochs / 3
	out["checkpoint.bytes_per_epoch"] = 0
	if ckEpochs > 0 {
		out["checkpoint.bytes_per_epoch"] = ckBytes / ckEpochs
	}
	out["checkpoint.capture_ms_p50"] = orZero(median(captures))

	// Resume: cut a run after one epoch with captures every millisecond,
	// then time Load-free resume-to-convergence from its last commit.
	cut := base
	cut.MaxEpochs = 1
	cut.Checkpoint.Dir, cut.Checkpoint.Interval, cut.Checkpoint.RunID = ckDir, time.Millisecond, cutRunID
	cutStats, err := runPlainJob(ctx, rt, g, "pagerank", cut)
	if err != nil {
		return err
	}
	out["checkpoint.resume_s_p50"] = 0
	if cutStats.CkptEpochs > 0 {
		resume := base
		resume.Checkpoint.Dir, resume.Checkpoint.Resume = ckDir, cutRunID
		t, err := timeIt(3, func() error {
			_, err := runPlainJob(ctx, rt, g, "pagerank", resume)
			return err
		})
		if err != nil {
			return err
		}
		out["checkpoint.resume_s_p50"] = t
	}

	n, nb := int64(g.NumVertices()), int64((g.NumVertices()+pagerankBlock(g)-1)/pagerankBlock(g))
	st := &checkpoint.State{
		NumVertices: n, NumBlocks: nb, Words: 1, Nodes: 1,
		VertexHi: n, BlockHi: nb,
		Values: make([]uint64, n), Priority: make([]uint64, nb), Active: make([]byte, nb),
	}
	for i := range st.Values {
		st.Values[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	var buf bytes.Buffer
	if out["checkpoint.encode_s"], err = timeIt(5, func() error {
		buf.Reset()
		return checkpoint.Encode(&buf, st)
	}); err != nil {
		return err
	}
	out["checkpoint.decode_s"], err = timeIt(5, func() error {
		_, err := checkpoint.Decode(bytes.NewReader(buf.Bytes()))
		return err
	})
	return err
}

// probeServeDirect times the serving layer's building blocks without HTTP:
// a cold and a warm pool acquire, a cache lookup, an admission decision.
func probeServeDirect(out metricSet, dir string) error {
	poolDir := filepath.Join(dir, "pool")
	if err := os.MkdirAll(poolDir, 0o755); err != nil {
		return err
	}
	src, err := os.ReadFile(filepath.Join(dir, "small.gabs"))
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(poolDir, "p.gabs"), src, 0o644); err != nil {
		return err
	}
	pool := serve.NewPool(poolDir, 0, nil)
	t0 := time.Now()
	_, _, release, err := pool.Acquire("p")
	if err != nil {
		return err
	}
	out["serve.pool_acquire_cold_s"] = time.Since(t0).Seconds()
	release()
	const ops = 20000
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		_, _, release, err := pool.Acquire("p")
		if err != nil {
			return err
		}
		release()
	}
	out["serve.pool_acquire_warm_ns"] = float64(time.Since(t0)) / ops

	cache := serve.NewCache(256)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("p|1|pagerank|%s", strings.Repeat("k", i%16)+fmt.Sprint(i))
		cache.Put(keys[i], &graphabcd.JobResult{Algorithm: "pagerank"})
	}
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		if _, ok := cache.Get(keys[i%len(keys)]); !ok {
			return fmt.Errorf("serve cache lost key %q", keys[i%len(keys)])
		}
	}
	out["serve.cache_get_ns"] = float64(time.Since(t0)) / ops

	lim := serve.NewLimiter(1e9, 1<<30, nil)
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		if !lim.Allow("tenant") {
			return fmt.Errorf("serve limiter refused within its burst")
		}
	}
	out["serve.limiter_allow_ns"] = float64(time.Since(t0)) / ops
	return nil
}

// probeServeSession boots a real graphabcdd on a small graph and runs a
// short version of serve_mix's two phases, so that the serve.* metrics of
// a traced run of any other workload are measured, not absent.
func probeServeSession(ctx context.Context, out metricSet, e *env, opt options) error {
	rig, err := bootRig(ctx, e, opt.seed, serveScaleSmoke)
	if err != nil {
		return err
	}
	defer rig.close()
	ss := &session{srv: rig.srv}
	before, err := ss.scrapeMetrics(ctx)
	if err != nil {
		return err
	}
	run := rig.run(ctx, nil, serveRate, probeServeFlows, probeServeJobs)
	after, err := run.ss.scrapeMetrics(ctx)
	if err != nil {
		return err
	}
	m := run.fold(rig.g, before, after)
	if m.failed > 0 {
		return fmt.Errorf("serve probe: %v", m.failures)
	}
	for k, v := range m.layer {
		if strings.HasPrefix(k, "serve.") {
			out[k] = v
		}
	}
	return nil
}

// countNonTestLines counts the lines of non-test .go files outside the
// benchmark's own directory: ROADMAP item 3's trend line (less code for
// the same behaviour and speed), reported next to the speed numbers.
func countNonTestLines(root string) (int, error) {
	total := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "bench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		total += strings.Count(string(data), "\n")
		return nil
	})
	return total, err
}
