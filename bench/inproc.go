package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"graphabcd"
	"graphabcd/internal/telemetry"
)

// Engine knobs, fixed for every workload on every commit (the host has two
// cores): two gather-apply workers, one scatter worker, default Epsilon.
const (
	benchPEs     = 2
	benchScatter = 1
)

func engineConfig(blockSize int, policy graphabcd.Policy) graphabcd.Config {
	cfg := graphabcd.DefaultConfig(blockSize)
	cfg.NumPEs, cfg.NumScatter = benchPEs, benchScatter
	cfg.Policy = policy
	return cfg
}

// jobRecord is what one in-process job leaves behind.
type jobRecord struct {
	kind   string  // "job", or "cold" / "resume" on cold_ckpt
	wall   float64 // client-perceived seconds, start to values in hand
	stats  graphabcd.Stats
	events int
	traced bool
	// Filled from the job's telemetry registry on traced jobs.
	gatherBusy, scatterBusy    float64 // seconds summed over workers
	stalenessP50, stalenessP99 float64
	captureMs                  float64 // mean checkpoint capture latency, 0 without captures
}

// measured is what a workload's measured window hands back.
type measured struct {
	jobs       []float64 // the samples behind job_s_p50
	attempted  int
	failed     int
	failures   []string
	closedWall float64 // wall seconds of the closed-loop phase
	closedJobs int     // verified jobs completed in it
	cpu        float64 // CPU seconds of the process(es) under test in the window
	cpuJobs    int     // what cpu is divided by
	peakRSSMB  float64
	traced     []float64 // job walls with tracing on / off, traced runs only
	untraced   []float64
	layer      metricSet      // workload-derived per-layer metrics (traced runs)
	info       map[string]any // sample counts and other context for result.json
}

func (m *measured) fail(format string, args ...any) {
	m.failed++
	if len(m.failures) < 5 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

// workload is one of the five benchmark workloads. setup is timed by the
// caller and repeated (with teardown between) so setup_s is a median;
// measure runs the fixed number of jobs that `seconds` maps to.
type workload interface {
	setup(ctx context.Context) error
	teardown()
	measure(ctx context.Context, seconds float64, tr *tracer) (*measured, error)
}

// runEngineJob drives one job through the public Runtime API the way the
// CLI and the server do: Run, then Wait. The spans mark the two calls;
// when traced, the job also carries a histogram-enabled telemetry registry
// so stage busy time and staleness can be read afterwards.
func runEngineJob(ctx context.Context, rt graphabcd.Runtime, g *graphabcd.Graph, algo string, cfg graphabcd.Config,
	opts []graphabcd.JobOption, tr *tracer, parent spanRef, jobID string, rec *jobRecord) (*graphabcd.JobResult, error) {
	var reg *telemetry.Registry
	if tr != nil {
		reg = telemetry.New(telemetry.Options{Histograms: true})
		cfg.Telemetry = reg
	}
	all := append([]graphabcd.JobOption{graphabcd.WithConfig(cfg)}, opts...)
	sp := tr.begin(parent, "runtime.Run", jobID)
	h, err := rt.Run(ctx, graphabcd.NewJobSpec(algo, g, all...))
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin(parent, "core.Wait", jobID)
	res, err := h.Wait(ctx)
	sp.end()
	if err != nil {
		return nil, err
	}
	rec.stats = res.Stats
	rec.events = drainEvents(h.Events())
	if reg != nil {
		busy := func(st telemetry.Stage) float64 {
			h := reg.StageHistogram(st)
			return float64(h.Count) * h.Mean() / 1e9
		}
		rec.gatherBusy, rec.scatterBusy = busy(telemetry.StageGather), busy(telemetry.StageScatter)
		stale := reg.StageHistogram(telemetry.StageStaleness)
		rec.stalenessP50, rec.stalenessP99 = float64(stale.Quantile(0.50)), float64(stale.Quantile(0.99))
		if ck := reg.StageHistogram(telemetry.StageCkpt); ck.Count > 0 {
			rec.captureMs = ck.Mean() / 1e6
		}
	}
	return res, nil
}

// runPlainJob is runEngineJob without spans or telemetry, for warm-ups and
// probes that only need the job done and its Stats.
func runPlainJob(ctx context.Context, rt graphabcd.Runtime, g *graphabcd.Graph, algo string, cfg graphabcd.Config, opts ...graphabcd.JobOption) (graphabcd.Stats, error) {
	var rec jobRecord
	_, err := runEngineJob(ctx, rt, g, algo, cfg, opts, nil, spanRef{}, "", &rec)
	return rec.stats, err
}

// drainEvents counts what the job's event stream delivered. The stream is
// closed right after the terminal event, so this returns within
// microseconds of Wait.
func drainEvents(h <-chan graphabcd.Event) int {
	n := 0
	for range h {
		n++
	}
	return n
}

// inprocKind selects which closed-loop in-process workload runs.
type inprocKind int

const (
	kindPR inprocKind = iota
	kindSSSP
)

// engineWorkload is pr_rmat and sssp_grid: one client, one warm graph,
// back-to-back jobs to convergence through Runtime.Run -> Handle.Wait.
type engineWorkload struct {
	e     *env
	kind  inprocKind
	seed  uint64
	smoke bool

	path string
	g    *graphabcd.Graph
	rt   graphabcd.Runtime
}

// Sizes. The issue's r18 / 256x256 inputs are scaled down because the
// driver gives each run about 25 s including set-up (bench/README.md,
// "Sizing"); the workload list and the layer each one stresses are kept.
const (
	prScale, prScaleSmoke   = 16, 12
	rmatEdgeFactor          = 16
	gridSide, gridSideSmoke = 128, 32
	gridBlock               = 16 // 1024 blocks on the full-size grid
	gridMaxWeight           = 8
	prJobsPerSecond         = 4.5
	ssspJobsPerSecond       = 6.5
	warmupJobs              = 3
	smokeJobs               = 3
	pagerankBlocksPerGraph  = 256
	minimumBlockSize        = 16
)

func jobCount(seconds, perSecond float64, smoke bool) int {
	if smoke {
		return smokeJobs
	}
	return max(smokeJobs, int(seconds*perSecond+0.5))
}

// pagerankBlockOf is the |V|/256 block-size heuristic the CLI and the
// server apply when no block size is given.
func pagerankBlockOf(n int) int { return max(minimumBlockSize, n/pagerankBlocksPerGraph) }

func pagerankBlock(g *graphabcd.Graph) int { return pagerankBlockOf(g.NumVertices()) }

// generate writes the workload's input graph to w.path.
func (w *engineWorkload) generate() error {
	if w.kind == kindPR {
		scale := prScale
		if w.smoke {
			scale = prScaleSmoke
		}
		return w.e.seededGraph(w.path, pagerankBlockOf(1<<scale), w.seed, rmatGen(scale, 0)...)
	}
	side := gridSide
	if w.smoke {
		side = gridSideSmoke
	}
	// The grid keeps its labels and takes its weights from the seed. A
	// block is a run of 16 cells of one row, and the order its cells are
	// relaxed in decides how far a distance travels per block update, so an
	// in-block relabelling (or another source cell) moves SSSP's job time
	// by 40%; another draw of weights in 1..8 moves it by ~4%.
	return w.e.gengraph(append(gridGen(side, gridMaxWeight), "-seed", strconv.FormatUint(w.seed, 10), "-o", w.path)...)
}

func (w *engineWorkload) spec() (algo string, cfg graphabcd.Config, opts []graphabcd.JobOption) {
	if w.kind == kindPR {
		return "pagerank", engineConfig(pagerankBlock(w.g), graphabcd.Cyclic), nil
	}
	return "sssp", engineConfig(gridBlock, graphabcd.Priority), []graphabcd.JobOption{graphabcd.WithSource(0)}
}

func (w *engineWorkload) setup(ctx context.Context) error {
	w.path = filepath.Join(w.e.work, "graph.gabs")
	if err := w.generate(); err != nil {
		return err
	}
	g, err := graphabcd.Load(w.path)
	if err != nil {
		return err
	}
	w.g, w.rt = g, graphabcd.NewRuntime()
	algo, cfg, opts := w.spec()
	for i := 0; i < warmupJobs; i++ {
		if _, err := runPlainJob(ctx, w.rt, w.g, algo, cfg, opts...); err != nil {
			return err
		}
	}
	return nil
}

func (w *engineWorkload) teardown() {
	w.g, w.rt = nil, nil
	releaseMemory()
}

// releaseMemory returns freed heap to the OS, so that a repeated set-up
// does not stack several graphs into the process's peak RSS.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func (w *engineWorkload) measure(ctx context.Context, seconds float64, tr *tracer) (*measured, error) {
	algo, cfg, opts := w.spec()
	perSecond := prJobsPerSecond
	want := pagerankOracle(w.g)
	check := checkPagerank
	if w.kind == kindSSSP {
		perSecond = ssspJobsPerSecond
		want = dijkstraOracle(w.g, 0)
		check = func(got, want []float64) error { return checkExactFloat("sssp", got, want) }
	}
	n := jobCount(seconds, perSecond, w.smoke)
	m := &measured{info: map[string]any{}}
	recs := make([]jobRecord, 0, n)

	releaseMemory()
	cpu0, _ := selfUsage()
	start := time.Now()
	for i := 0; i < n; i++ {
		rec := jobRecord{kind: "job", traced: tr != nil && tracedTurn(i)}
		jobTr := tr.onlyIf(rec.traced)
		id := fmt.Sprintf("job-%d", i)
		root := jobTr.begin(spanRef{}, "job."+algo, id)
		t0 := time.Now()
		res, err := runEngineJob(ctx, w.rt, w.g, algo, cfg, opts, jobTr, root, id, &rec)
		rec.wall = time.Since(t0).Seconds()
		root.end()
		m.attempted++
		switch {
		case err != nil:
			m.fail("job %d: %v", i, err)
			continue
		case !res.Stats.Converged:
			m.fail("job %d: did not converge", i)
		default:
			if err := check(res.Float, want); err != nil {
				m.fail("job %d: %v", i, err)
			}
		}
		recs = append(recs, rec)
	}
	m.closedWall = time.Since(start).Seconds()
	cpu1, peak := selfUsage()
	m.cpu, m.cpuJobs, m.peakRSSMB = cpu1-cpu0, n, peak
	m.closedJobs = m.attempted - m.failed
	foldRecords(m, recs, "job")
	return m, nil
}

// foldRecords turns job records into the samples and the workload-derived
// layer metrics. primary names the record kind whose walls feed job_s_p50.
func foldRecords(m *measured, recs []jobRecord, primary string) {
	var engine, epochs, edges, blocks, writes, overhead, events []float64
	var gather, scatter, st50, st99, capture []float64
	stalls, totalEdges, totalWall := 0.0, 0.0, 0.0
	for _, r := range recs {
		if r.kind == primary {
			m.jobs = append(m.jobs, r.wall)
		}
		if r.traced {
			m.traced = append(m.traced, r.wall)
			gather, scatter = append(gather, r.gatherBusy), append(scatter, r.scatterBusy)
			st50, st99 = append(st50, r.stalenessP50), append(st99, r.stalenessP99)
			if r.captureMs > 0 {
				capture = append(capture, r.captureMs)
			}
		} else {
			m.untraced = append(m.untraced, r.wall)
		}
		w := r.stats.WallTime.Seconds()
		engine = append(engine, w)
		epochs = append(epochs, r.stats.Epochs)
		edges = append(edges, float64(r.stats.EdgesTraversed))
		blocks = append(blocks, float64(r.stats.BlockUpdates))
		writes = append(writes, float64(r.stats.ScatterWrites))
		events = append(events, float64(r.events))
		stalls += float64(r.stats.StallWindows)
		totalEdges += float64(r.stats.EdgesTraversed)
		totalWall += r.wall
		if r.kind == primary {
			overhead = append(overhead, r.wall-w)
		}
	}
	m.info["jobs"] = len(m.jobs)
	m.info["edges_per_job_spread"] = quartileSpread(edges)
	m.info["epochs_spread"] = quartileSpread(epochs)
	if len(recs) == 0 {
		return
	}
	m.layer = metricSet{
		"core.engine_s_p50":              median(engine),
		"core.epochs_p50":                median(epochs),
		"core.edges_per_job":             median(edges),
		"core.block_updates_per_job":     median(blocks),
		"core.scatter_writes_per_job":    median(writes),
		"core.stall_windows":             stalls,
		"core.mteps":                     totalEdges / totalWall / 1e6,
		"runtime.overhead_s_p50":         median(overhead),
		"runtime.events_per_job":         median(events),
		"core.gather_busy_s":             orZero(median(gather)),
		"core.scatter_busy_s":            orZero(median(scatter)),
		"core.staleness_p50_milliepochs": orZero(median(st50)),
		"core.staleness_p99_milliepochs": orZero(median(st99)),
	}
	m.layer["core.gather_ns_per_edge"] = orZero(median(gather) * 1e9 / median(edges))
	if len(capture) > 0 { // only jobs that checkpoint (cold_ckpt's) have captures
		m.layer["checkpoint.capture_ms_p50"] = median(capture)
	}
}

// replicaLayer runs n traced in-process copies of a job that the workload
// itself runs inside another process (the server, the two cluster nodes),
// so the core.* and runtime.* layer metrics of a traced run always come
// from the engine running the workload's own graph and algorithm.
func replicaLayer(ctx context.Context, g *graphabcd.Graph, algo string, cfg graphabcd.Config, opts []graphabcd.JobOption, n int, tr *tracer) (metricSet, error) {
	rt := graphabcd.NewRuntime()
	recs := make([]jobRecord, 0, n)
	for i := 0; i < n; i++ {
		rec := jobRecord{kind: "replica", traced: true}
		id := fmt.Sprintf("replica-%d", i)
		root := tr.begin(spanRef{}, "job.replica", id)
		t0 := time.Now()
		_, err := runEngineJob(ctx, rt, g, algo, cfg, opts, tr, root, id, &rec)
		rec.wall = time.Since(t0).Seconds()
		root.end()
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	m := &measured{info: map[string]any{}}
	foldRecords(m, recs, "replica")
	return m.layer, nil
}

// replicaJobs is how many in-process copies replicaLayer runs.
const replicaJobs = 4

// orZero maps the NaN of an empty sample set to 0.
func orZero(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

// coldWorkload is cold_ckpt: what a one-shot CLI user pays. Cold and
// resume jobs alternate; each loads the snapshot from disk, runs PageRank
// to convergence and writes the values file. Cold jobs checkpoint every
// 50 ms; resume jobs restart from a committed epoch of a run that was cut
// short in set-up.
type coldWorkload struct {
	e     *env
	seed  uint64
	smoke bool

	path    string
	ckptDir string
	rt      graphabcd.Runtime
	block   int
}

const (
	coldScale, coldScaleSmoke = 16, 12
	coldPairsPerSecond        = 2.0
	coldCheckpointEvery       = 50 * time.Millisecond
	cutRunID                  = "cut"
	cutEpochs                 = 2
)

func (w *coldWorkload) setup(ctx context.Context) error {
	w.path = filepath.Join(w.e.work, "cold.gabs")
	w.ckptDir = filepath.Join(w.e.work, "ckpt")
	scale := coldScale
	if w.smoke {
		scale = coldScaleSmoke
	}
	if err := w.e.seededGraph(w.path, pagerankBlockOf(1<<scale), w.seed, rmatGen(scale, 0)...); err != nil {
		return err
	}
	if err := os.RemoveAll(w.ckptDir); err != nil {
		return err
	}
	g, err := graphabcd.Load(w.path)
	if err != nil {
		return err
	}
	w.rt, w.block = graphabcd.NewRuntime(), pagerankBlock(g)
	cfg := engineConfig(w.block, graphabcd.Cyclic)
	for i := 0; i < warmupJobs; i++ {
		if _, err := runPlainJob(ctx, w.rt, g, "pagerank", cfg); err != nil {
			return err
		}
	}
	// The run resume jobs restart from: PageRank stopped after two
	// epochs, checkpointing as fast as the store commits. The interval
	// halves until at least one epoch was committed before the cut.
	for every := 8 * time.Millisecond; ; every /= 2 {
		if err := os.RemoveAll(filepath.Join(w.ckptDir, cutRunID)); err != nil {
			return err
		}
		cut := cfg
		cut.MaxEpochs = cutEpochs
		cut.Checkpoint.Dir, cut.Checkpoint.Interval, cut.Checkpoint.RunID = w.ckptDir, every, cutRunID
		stats, err := runPlainJob(ctx, w.rt, g, "pagerank", cut)
		if err != nil {
			return err
		}
		if stats.CkptEpochs > 0 {
			return nil
		}
		if every < 100*time.Microsecond {
			return fmt.Errorf("cold_ckpt: no checkpoint epoch committed within %d epochs", cutEpochs)
		}
	}
}

func (w *coldWorkload) teardown() {
	w.rt = nil
	releaseMemory()
}

// writeValues writes one value per line with full round-trip precision,
// the format of graphabcd -values-out.
func writeValues(path string, vals []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	buf := make([]byte, 0, 32)
	for _, v := range vals {
		buf = strconv.AppendFloat(buf[:0], v, 'g', 17, 64)
		buf = append(buf, '\n')
		_, _ = bw.Write(buf) // bufio's error is sticky and surfaces at Flush
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func readValues(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only
	var out []float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		v, err := strconv.ParseFloat(sc.Text(), 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}

func (w *coldWorkload) measure(ctx context.Context, seconds float64, tr *tracer) (*measured, error) {
	want, err := pagerankOracleOf(w.path)
	if err != nil {
		return nil, err
	}
	pairs := jobCount(seconds, coldPairsPerSecond, w.smoke)
	m := &measured{info: map[string]any{}}
	var recs []jobRecord
	var resumes []float64
	valuesPath := filepath.Join(w.e.work, "values.txt")

	releaseMemory()
	cpu0, _ := selfUsage()
	start := time.Now()
	for i := 0; i < 2*pairs; i++ {
		kind := "cold"
		if i%2 == 1 {
			kind = "resume"
		}
		rec := jobRecord{kind: kind, traced: tr != nil && tracedTurn(i/2)}
		jobTr := tr.onlyIf(rec.traced)
		id := fmt.Sprintf("%s-%d", kind, i/2)
		cfg := engineConfig(w.block, graphabcd.Cyclic)
		cfg.Checkpoint.Dir = w.ckptDir
		if kind == "cold" {
			cfg.Checkpoint.Interval, cfg.Checkpoint.RunID = coldCheckpointEvery, id
		} else {
			cfg.Checkpoint.Resume = cutRunID
		}

		root := jobTr.begin(spanRef{}, "job."+kind, id)
		t0 := time.Now()
		sp := jobTr.begin(root, "graph.Load", id)
		jg, err := graphabcd.Load(w.path)
		sp.end()
		var res *graphabcd.JobResult
		if err == nil {
			res, err = runEngineJob(ctx, w.rt, jg, "pagerank", cfg, nil, jobTr, root, id, &rec)
		}
		if err == nil {
			sp = jobTr.begin(root, "result.Write", id)
			err = writeValues(valuesPath, res.Float)
			sp.end()
		}
		rec.wall = time.Since(t0).Seconds()
		root.end()

		m.attempted++
		if err != nil {
			m.fail("%s: %v", id, err)
			continue
		}
		got, err := readValues(valuesPath)
		switch {
		case err != nil:
			m.fail("%s: %v", id, err)
		case !res.Stats.Converged:
			m.fail("%s: did not converge", id)
		default:
			if err := checkPagerank(got, want); err != nil {
				m.fail("%s: %v", id, err)
			}
		}
		if kind == "cold" {
			if err := os.RemoveAll(filepath.Join(w.ckptDir, id)); err != nil {
				m.fail("%s: %v", id, err)
			}
		} else {
			resumes = append(resumes, rec.wall)
		}
		recs = append(recs, rec)
	}
	m.closedWall = time.Since(start).Seconds()
	cpu1, peak := selfUsage()
	m.cpu, m.cpuJobs, m.peakRSSMB = cpu1-cpu0, 2*pairs, peak
	m.closedJobs = m.attempted - m.failed
	foldRecords(m, recs, "cold")
	if m.layer != nil {
		var ckEpochs, ckBytes float64
		colds := 0
		for _, r := range recs {
			if r.kind == "cold" {
				colds++
				ckEpochs += float64(r.stats.CkptEpochs)
				ckBytes += float64(r.stats.CkptBytes)
			}
		}
		// cold_ckpt exercises the checkpoint layer itself, so its own
		// numbers replace the fixed-graph probe's for these metrics.
		m.layer["checkpoint.epochs_per_job"] = ckEpochs / float64(max(1, colds))
		if ckEpochs > 0 {
			m.layer["checkpoint.bytes_per_epoch"] = ckBytes / ckEpochs
		}
		m.layer["checkpoint.resume_s_p50"] = orZero(median(resumes))
	}
	return m, nil
}
