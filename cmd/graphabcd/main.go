// Command graphabcd runs one of the built-in algorithms on a graph under
// a fully configurable GraphABCD engine and reports convergence and
// performance statistics (optionally including the HARPv2 accelerator
// model's simulated metrics).
//
// Usage:
//
//	graphabcd -algo pr -dataset LJ -shrink 2 -block 512 -policy priority
//	graphabcd -algo sssp -graph weighted.el -source 0 -mode bsp
//	graphabcd -algo cf -dataset NF -shrink 3 -max-epochs 20 -sim
//
// -graph accepts both the text edge list and the binary snapshot formats
// (auto-detected); -save-graph writes the loaded graph back out, so a
// text dataset is converted to a fast-loading snapshot with:
//
//	graphabcd -algo pr -graph big.el -save-graph big.gabs
//
// Passing -nodes N (N > 1) runs pr/sssp/bfs/cc on the distributed cluster
// engine instead, optionally under injected transport faults:
//
//	graphabcd -algo pr -dataset LJ -nodes 4 -chaos-drop 0.2 -chaos-dup 0.1
//	graphabcd -algo cc -dataset WT -nodes 3 -fail-node 1 -timeout 30s
//
// -listen/-join scale the same engine out across processes over real TCP
// sockets: the coordinator loads the graph and serves each joiner only
// its own partition's snapshot sections, every process hosts one node,
// and the coordinator collects the converged values:
//
//	graphabcd -algo cc -dataset WT -nodes 3 -listen 127.0.0.1:7001   # coordinator
//	graphabcd -join 127.0.0.1:7001                                   # joiner ×2
//
// -ckpt-dir makes long runs crash-safe: the engine (or, under -listen,
// the whole cluster) periodically writes committed checkpoint epochs
// there, and -resume restarts from the last committed epoch instead of
// from scratch. -record-schedule captures an async run's block schedule
// for -replay-schedule to re-execute deterministically:
//
//	graphabcd -algo pr -dataset LJ -ckpt-dir /ckpt -ckpt-interval 30s
//	graphabcd -algo pr -dataset LJ -ckpt-dir /ckpt -resume latest
//	graphabcd -algo pr -dataset LJ -record-schedule run.gabr
//	graphabcd -algo pr -dataset LJ -replay-schedule run.gabr
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"graphabcd"
	"graphabcd/internal/accel"
	"graphabcd/internal/bcd"
	"graphabcd/internal/chaos"
	"graphabcd/internal/checkpoint"
	"graphabcd/internal/cluster"
	"graphabcd/internal/cluster/tcp"
	"graphabcd/internal/core"
	"graphabcd/internal/edgestore"
	"graphabcd/internal/gen"
	"graphabcd/internal/graph"
	"graphabcd/internal/obslog"
	"graphabcd/internal/sched"
	"graphabcd/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "graphabcd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		algo      = flag.String("algo", "pr", "algorithm: pr | ppr | prdelta | sssp | bfs | cc | lp | kcore | cf")
		seeds     = flag.String("seeds", "", "ppr: comma-separated personalization seed vertices")
		graphFile = flag.String("graph", "", "graph file, text edge list or binary snapshot (alternative to -dataset)")
		saveGraph = flag.String("save-graph", "", "write the loaded graph to this path before running (.gabs snapshot, .gabz compressed snapshot, else text)")
		dataset   = flag.String("dataset", "", "Table-I analog name (WT PS LJ TW SAC MOL NF)")
		shrink    = flag.Int("shrink", 2, "dataset scale-down exponent")
		source    = flag.Uint("source", 0, "source vertex for sssp/bfs (default: max out-degree)")
		srcSet    = false

		block     = flag.Int("block", 0, "block size (0 = |V|/256 heuristic)")
		mode      = flag.String("mode", "async", "engine mode: async | barrier | bsp")
		policy    = flag.String("policy", "cyclic", "block selection: cyclic | priority | random")
		pes       = flag.Int("pes", 4, "gather-apply workers (accelerator PEs)")
		scatter   = flag.Int("scatter", 2, "scatter workers (CPU threads)")
		hybrid    = flag.Bool("hybrid", false, "enable hybrid execution")
		eps       = flag.Float64("eps", 1e-9, "activation threshold")
		maxEpochs = flag.Float64("max-epochs", 0, "epoch budget (0 = run to convergence)")
		useSim    = flag.Bool("sim", false, "attach the HARPv2 accelerator model")
		store     = flag.String("edgestore", "memory", "edge storage backend: memory | file | compressed | snapshot (non-memory backends spill to a temp file and stream out-of-core)")
		top       = flag.Int("top", 5, "print the top-K vertices by value")
		rank      = flag.Int("rank", 8, "cf: factor rank")

		timeout    = flag.Duration("timeout", 0, "cancel the run after this duration and report the partial result (0 = none)")
		nodes      = flag.Int("nodes", 1, "cluster nodes; >1 runs pr/sssp/bfs/cc on the distributed engine")
		wpn        = flag.Int("workers-per-node", 2, "distributed: workers per node")
		batch      = flag.Int("batch", 64, "distributed: remote updates per message batch")
		chaosDrop  = flag.Float64("chaos-drop", 0, "distributed: message drop probability")
		chaosDup   = flag.Float64("chaos-dup", 0, "distributed: message duplication probability")
		chaosDelay = flag.Duration("chaos-delay", 0, "distributed: max per-message delivery jitter (reorders messages)")
		chaosSeed  = flag.Uint64("chaos-seed", 1, "distributed: fault-injection PRNG seed")
		failNode   = flag.Int("fail-node", -1, "distributed: kill this node mid-run (-1 = none)")
		failAfter  = flag.Int64("fail-after", 200, "distributed: batches carried before -fail-node is killed")

		listenAddr = flag.String("listen", "", "run as the TCP cluster coordinator on this address; waits for -nodes minus one joiners")
		joinAddr   = flag.String("join", "", "join a TCP cluster coordinator at this address (all other run flags come from it)")
		valuesOut  = flag.String("values-out", "", "write the final per-vertex values to this file, one vertex per line")

		ckptDir      = flag.String("ckpt-dir", "", "write committed checkpoint epochs to this directory (single-node and -listen runs)")
		ckptInterval = flag.Duration("ckpt-interval", 5*time.Second, "checkpoint period (needs -ckpt-dir)")
		runID        = flag.String("run-id", "", "checkpoint run id (default: derived from the algorithm and graph)")
		resume       = flag.String("resume", "", "resume from a committed checkpoint: a run id, or 'latest' (needs -ckpt-dir)")
		recordPath   = flag.String("record-schedule", "", "record the async block schedule to this file for -replay-schedule")
		replayPath   = flag.String("replay-schedule", "", "deterministically re-execute a schedule recorded by -record-schedule")

		useTel      = flag.Bool("telemetry", false, "enable stage histograms and the post-run telemetry report")
		tracePath   = flag.String("trace", "", "write a Chrome trace-event JSON of sampled block lifecycles to this file")
		traceSample = flag.Int("trace-sample", 16, "trace every Nth block id (1 = every block)")
		traceMerge  = flag.String("trace-merge", "", "merge the per-node trace shards given as arguments into this file, then exit")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /healthz, /readyz, expvar, and pprof on this address (e.g. :6060); works on joiners too")
		progress    = flag.Bool("progress", false, "print a 1 Hz status line to stderr while the run executes")
		logLevel    = flag.String("log-level", "", "enable structured logging to stderr at this level: debug | info | warn | error")
		logFormat   = flag.String("log-format", "text", "structured log encoding: text | json")
	)
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "source" {
			srcSet = true
		}
	})

	if *traceMerge != "" {
		// A pure post-processing mode: stitch per-node trace shards and
		// exit without touching a graph.
		return mergeTraces(*traceMerge, flag.Args())
	}

	if *logLevel != "" {
		lvl, ok := obslog.ParseLevel(*logLevel)
		if !ok {
			return fmt.Errorf("unknown -log-level %q (want debug|info|warn|error)", *logLevel)
		}
		// Per-process identity attrs; the per-event node/runID fields in
		// the log sites refine these once an assignment is known.
		var attrs []slog.Attr
		if *runID != "" {
			attrs = append(attrs, slog.String("runID", *runID))
		}
		switch {
		case *joinAddr != "":
			attrs = append(attrs, slog.String("role", "joiner"), slog.String("addr", *joinAddr))
		case *listenAddr != "":
			attrs = append(attrs, slog.String("role", "coordinator"), slog.String("addr", *listenAddr), slog.Int("node", 0))
		}
		if !obslog.Init(lvl, *logFormat, os.Stderr, attrs...) {
			return fmt.Errorf("unknown -log-format %q (want text|json)", *logFormat)
		}
	}

	if *joinAddr != "" {
		// A joiner is configured entirely by its coordinator: no graph,
		// no dataset, no engine flags — but it serves its own metrics
		// endpoint and ships telemetry deltas when the coordinator asks.
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		jOpts := telemetryOpts{
			enabled:     *useTel,
			tracePath:   *tracePath,
			traceSample: *traceSample,
			metricsAddr: *metricsAddr,
			distributed: true,
		}
		var jses *telemetrySession
		topts := tcp.Options{}
		if jOpts.active() {
			var err error
			if jses, err = startTelemetry(jOpts); err != nil {
				return err
			}
			topts.Telemetry = jses.reg
			topts.Health = jses.health
		}
		fmt.Printf("joining coordinator at %s\n", *joinAddr)
		err := tcp.Join(ctx, *joinAddr, topts)
		if jses != nil {
			jses.finish()
		}
		if err != nil {
			return err
		}
		fmt.Println("join run complete")
		return nil
	}

	g, err := loadGraph(*graphFile, *dataset, *shrink, *algo)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %s\n", g)
	if *saveGraph != "" {
		if err := graph.Save(*saveGraph, g); err != nil {
			return err
		}
		fmt.Printf("saved: %s (%s)\n", *saveGraph, graph.DetectSaveFormat(*saveGraph, graph.FormatAuto))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	blockSize := *block
	if blockSize == 0 {
		blockSize = graph.DefaultBlockSize(g.NumVertices())
	}

	src := uint32(*source)
	if !srcSet {
		src = maxOutDegreeVertex(g)
	}

	tOpts := telemetryOpts{
		enabled:     *useTel,
		tracePath:   *tracePath,
		traceSample: *traceSample,
		metricsAddr: *metricsAddr,
		progress:    *progress,
		cluster:     *listenAddr != "",
		distributed: *listenAddr != "" || *nodes > 1,
	}
	var tses *telemetrySession
	var telReg *telemetry.Registry
	if tOpts.active() {
		if tses, err = startTelemetry(tOpts); err != nil {
			return err
		}
		telReg = tses.reg
	}

	if *listenAddr != "" {
		var clus *telemetry.ClusterStats
		var health *telemetry.Health
		if tses != nil {
			clus, health = tses.cluster, tses.health
		}
		err := runListen(ctx, g, *listenAddr, distOpts{
			tel:          telReg,
			cluster:      clus,
			health:       health,
			algo:         *algo,
			src:          src,
			top:          *top,
			valuesOut:    *valuesOut,
			nodes:        *nodes,
			blockSize:    blockSize,
			wpn:          *wpn,
			batch:        *batch,
			eps:          *eps,
			ckptDir:      *ckptDir,
			ckptInterval: *ckptInterval,
			runID:        *runID,
			resume:       *resume,
		})
		if tses != nil {
			tses.finish()
		}
		return err
	}

	// The in-process paths have no dist runtime driving readiness; the
	// run itself is the readiness signal (-listen/-join flip it from
	// inside the cluster runtime instead).
	if tses != nil {
		tses.health.SetReady(true, "running")
	}

	if *nodes > 1 {
		if *ckptDir != "" || *resume != "" {
			return fmt.Errorf("the in-process cluster engine does not checkpoint; use -listen for a crash-safe distributed run")
		}
		err := runDistributed(ctx, g, distOpts{
			tel:       telReg,
			algo:      *algo,
			src:       src,
			top:       *top,
			valuesOut: *valuesOut,
			nodes:     *nodes,
			blockSize: blockSize,
			wpn:       *wpn,
			batch:     *batch,
			eps:       *eps,
			maxEpochs: *maxEpochs,
			drop:      *chaosDrop,
			dup:       *chaosDup,
			delay:     *chaosDelay,
			seed:      *chaosSeed,
			failNode:  *failNode,
			failAfter: *failAfter,
		})
		if tses != nil {
			tses.finish()
		}
		return err
	}

	edges, cleanup, err := openEdgeStore(g, *store)
	if err != nil {
		return err
	}
	defer cleanup()

	cfg := core.Config{
		BlockSize:  blockSize,
		NumPEs:     *pes,
		NumScatter: *scatter,
		Hybrid:     *hybrid,
		Epsilon:    *eps,
		MaxEpochs:  *maxEpochs,
		Seed:       1,
		Edges:      edges,
		Telemetry:  telReg,
	}
	switch *mode {
	case "async":
		cfg.Mode = core.Async
	case "barrier":
		cfg.Mode = core.Barrier
	case "bsp":
		cfg.Mode = core.BSP
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	switch *policy {
	case "cyclic":
		cfg.Policy = sched.Cyclic
	case "priority":
		cfg.Policy = sched.Priority
	case "random":
		cfg.Policy = sched.Random
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}
	cfg.Checkpoint = core.Checkpoint{Dir: *ckptDir, RunID: *runID, Resume: *resume}
	if *ckptDir != "" {
		cfg.Checkpoint.Interval = *ckptInterval
	}
	var schedule []uint32
	if *replayPath != "" {
		f, err := os.Open(*replayPath)
		if err != nil {
			return err
		}
		nb := (g.NumVertices() + blockSize - 1) / blockSize
		schedule, err = checkpoint.ReadSchedule(f, nb)
		_ = f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("replaying %d scheduled blocks from %s\n", len(schedule), *replayPath)
	}
	var recFile *os.File
	if *recordPath != "" && schedule == nil {
		if recFile, err = os.Create(*recordPath); err != nil {
			return err
		}
		defer func() { _ = recFile.Close() }() // double close on success is harmless
		cfg.RecordSchedule = recFile
	}
	var sim *accel.Simulator
	if *useSim {
		sc := accel.DefaultHARPv2()
		if *pes > sc.NumPEs {
			sc.NumPEs = *pes
		}
		if *scatter > sc.CPUThreads {
			sc.CPUThreads = *scatter
		}
		if sim, err = accel.New(sc); err != nil {
			return err
		}
		cfg.Sim = sim
	}

	// One registry-driven dispatch replaces the per-algorithm switch: the
	// CLI builds the same JobSpec the HTTP serving layer does, and the
	// Runtime validates it (engine config included) before starting.
	alg, err := graphabcd.LookupAlgorithm(*algo)
	if err != nil {
		return err
	}
	if cfg.MaxEpochs == 0 && alg.DefaultMaxEpochs > 0 {
		cfg.MaxEpochs = alg.DefaultMaxEpochs // non-convergent workloads need a bound
	}
	jopts := []graphabcd.JobOption{graphabcd.WithConfig(cfg)}
	if alg.NeedsSource {
		jopts = append(jopts, graphabcd.WithSource(src))
	}
	if alg.NeedsSeeds {
		pprSeeds, err := parseSeeds(*seeds)
		if err != nil {
			return err
		}
		jopts = append(jopts, graphabcd.WithSeeds(pprSeeds...))
	}
	var cfParams bcd.CF
	if alg.Name == "cf" {
		cfParams = bcd.CF{Rank: *rank, LearnRate: 0.3, Lambda: 0.01, Seed: 7}
		jopts = append(jopts, graphabcd.WithCFParams(cfParams))
	}
	if schedule != nil {
		jopts = append(jopts, graphabcd.WithSchedule(schedule))
	}
	h, err := graphabcd.NewRuntime().Run(ctx, graphabcd.NewJobSpec(alg.Name, g, jopts...))
	if err != nil {
		return err
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		return err
	}
	// The residual trace is the replay's fingerprint: two replays of the
	// same schedule print bit-identical lines.
	for i, r := range res.Residuals {
		if i >= 8 && i < len(res.Residuals)-1 {
			if i == 8 {
				fmt.Printf("residual ...\n")
			}
			continue
		}
		fmt.Printf("residual after epoch %d: %.17g\n", i+1, r)
	}
	stats := res.Stats
	printResult(alg, src, *top, res, g, cfParams)

	fmt.Printf("converged: %v\nepochs: %.2f\nblock updates: %d\nedges traversed: %d\nwall time: %v\nthroughput: %.1f MTEPS\n",
		stats.Converged, stats.Epochs, stats.BlockUpdates, stats.EdgesTraversed, stats.WallTime, stats.MTEPS())
	if stats.StallWindows > 0 {
		fmt.Printf("stall windows: %d\n", stats.StallWindows)
	}
	if sim != nil {
		fmt.Printf("sim time: %.3f ms\nbus util: %.1f%%\nPE util: %.1f%%\nbus bytes: %d\n",
			stats.SimTimeNs/1e6, 100*sim.BusUtilization(), 100*sim.PEUtilization(), sim.BusBytes())
	}
	if recFile != nil {
		// The engine already flushed the recorder; the file close is the
		// last durability step and its error must not pass silently.
		if err := recFile.Close(); err != nil {
			return err
		}
		fmt.Printf("schedule: %s\n", *recordPath)
	}
	if tses != nil {
		tses.finish()
	}
	return writeValues(*valuesOut, res)
}

// parseSeeds splits a comma-separated vertex id list for -seeds.
func parseSeeds(s string) ([]uint32, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("ppr needs -seeds (comma-separated vertex ids)")
	}
	parts := strings.Split(s, ",")
	out := make([]uint32, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad seed vertex %q: %w", p, err)
		}
		out = append(out, uint32(v))
	}
	return out, nil
}

// distOpts carries the distributed-run flag values.
type distOpts struct {
	tel          *telemetry.Registry
	cluster      *telemetry.ClusterStats // coordinator: merged fStats sink
	health       *telemetry.Health       // /readyz state, driven by the dist runtime
	algo         string
	src          uint32
	top          int
	valuesOut    string
	nodes        int
	blockSize    int
	wpn          int
	batch        int
	eps          float64
	maxEpochs    float64
	drop, dup    float64
	delay        time.Duration
	seed         uint64
	failNode     int
	failAfter    int64
	ckptDir      string
	ckptInterval time.Duration
	runID        string
	resume       string
}

// runListen runs the coordinator side of a TCP cluster: the loaded graph
// is staged as a plain snapshot (the section server needs positioned
// reads), joiners are awaited on the control listener, and the collected
// values are reported like a local run.
func runListen(ctx context.Context, g *graph.Graph, addr string, o distOpts) error {
	dir, err := os.MkdirTemp("", "graphabcd-dist")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }() // best-effort temp cleanup
	snapPath := filepath.Join(dir, "graph.gabs")
	if err := graph.SaveFormat(snapPath, g, graph.FormatSnapshot); err != nil {
		return err
	}
	ctrl, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer func() { _ = ctrl.Close() }()
	fmt.Printf("coordinating %d nodes on %s (%d joiners expected)\n", o.nodes, ctrl.Addr(), o.nodes-1)
	res, err := tcp.Serve(ctx, ctrl, snapPath, tcp.DistConfig{
		Nodes:              o.nodes,
		Algo:               o.algo,
		Source:             o.src,
		BlockSize:          o.blockSize,
		WorkersPerNode:     o.wpn,
		BatchSize:          o.batch,
		Epsilon:            o.eps,
		Telemetry:          o.tel,
		Cluster:            o.cluster,
		Health:             o.health,
		CheckpointDir:      o.ckptDir,
		CheckpointInterval: o.ckptInterval,
		RunID:              o.runID,
		Resume:             o.resume,
	})
	if err != nil {
		return err
	}
	alg, err := graphabcd.LookupAlgorithm(o.algo)
	if err != nil {
		return err
	}
	values := &graphabcd.JobResult{Float: res.Float, Uint: res.Uint}
	// No graph: only cf's rmse line reads it, and naming g here would keep
	// the whole loaded graph live through Serve (the nodes run on sections).
	printResult(alg, o.src, o.top, values, nil, bcd.CF{})
	fmt.Printf("nodes: %d\nbatches sent: %d\nwall time: %v\n", o.nodes, res.BatchesSent, res.WallTime)
	if w := res.Wire; w.FramesSent > 0 || w.FramesRecv > 0 {
		fmt.Printf("wire: %d B in %d frames sent, %d B in %d frames recv, %d reconnects, %d drops (%d crc), queue high water %d\n",
			w.BytesSent, w.FramesSent, w.BytesRecv, w.FramesRecv,
			w.Reconnects, w.Drops, w.CRCDrops, w.QueueHighWater)
	}
	return writeValues(o.valuesOut, values)
}

// printResult prints a finished job's headline lines. The registry
// entry's value kind picks the shape; every front end (local, -nodes N,
// -listen) prints through here.
func printResult(alg *graphabcd.AlgorithmSpec, src uint32, top int, res *graphabcd.JobResult, g *graph.Graph, cf bcd.CF) {
	switch alg.Values {
	case graphabcd.FloatValues:
		label := "rank"
		if alg.NeedsSource {
			fmt.Printf("source: %d\n", src)
			label = "dist"
		}
		printTopFloat(res.Float, top, label)
	case graphabcd.VectorValues:
		fmt.Printf("rmse: %.4f\n", cf.RMSE(g, res.Vectors))
	case graphabcd.UintValues:
		switch alg.Name {
		case "bfs":
			fmt.Printf("source: %d, reached: %d\n", src, countReached(res.Uint))
		case "kcore":
			fmt.Printf("max core: %d\n", slices.Max(append(res.Uint, 0)))
		case "labelprop":
			fmt.Printf("communities: %d\n", countComponents(res.Uint))
		default:
			fmt.Printf("components: %d\n", countComponents(res.Uint))
		}
	}
}

// writeValues dumps the final values to path (-values-out; empty writes
// nothing) one vertex per line, floats with full round-trip precision so
// runs can be compared exactly. The write is crash-atomic (temp file +
// sync + rename): a run killed mid-write leaves the previous file intact,
// never a truncated mix.
func writeValues(path string, res *graphabcd.JobResult) error {
	if path == "" {
		return nil
	}
	err := checkpoint.AtomicWriteFile(path, func(out io.Writer) error {
		// bufio's error is sticky: a failed write here surfaces at Flush.
		w := bufio.NewWriter(out)
		for _, v := range res.Float {
			_, _ = fmt.Fprintf(w, "%.17g\n", v)
		}
		for _, v := range res.Uint {
			_, _ = fmt.Fprintf(w, "%d\n", v)
		}
		for _, v := range res.Vectors {
			_, _ = fmt.Fprintln(w, strings.Trim(fmt.Sprint(v), "[]"))
		}
		return w.Flush()
	})
	if err == nil {
		fmt.Printf("values: %s\n", path)
	}
	return err
}

// runDistributed executes pr/sssp/bfs/cc on the cluster engine, wiring up
// the chaos transport and the mid-run node kill when requested.
func runDistributed(ctx context.Context, g *graph.Graph, o distOpts) error {
	cfg := cluster.Config{
		Nodes:          o.nodes,
		BlockSize:      o.blockSize,
		WorkersPerNode: o.wpn,
		BatchSize:      o.batch,
		Epsilon:        o.eps,
		MaxEpochs:      o.maxEpochs,
		Telemetry:      o.tel,
	}
	if o.drop > 0 || o.dup > 0 || o.delay > 0 || o.failNode >= 0 {
		tcfg := chaos.Config{
			Seed:     o.seed,
			DropRate: o.drop,
			DupRate:  o.dup,
			MaxDelay: o.delay,
		}
		if o.failNode >= 0 {
			ctl := make(chan cluster.Control, 1)
			cfg.OnStart = func(c cluster.Control) { ctl <- c }
			tcfg.AfterBatches = o.failAfter
			tcfg.OnFault = func() {
				c := <-ctl
				if err := c.FailNode(o.failNode); err != nil {
					fmt.Fprintln(os.Stderr, "graphabcd: fail-node:", err)
				}
			}
		}
		cfg.Transport = chaos.New(tcfg)
		fmt.Printf("chaos: drop=%.2f dup=%.2f delay=%v seed=%d\n", o.drop, o.dup, o.delay, o.seed)
	}

	// Distributed dispatch rides the same registry as the single-node
	// path; the Runtime validates the cluster config before any node
	// goroutine starts.
	alg, err := graphabcd.LookupAlgorithm(o.algo)
	if err != nil {
		return err
	}
	jopts := []graphabcd.JobOption{graphabcd.WithClusterConfig(cfg)}
	if alg.NeedsSource {
		jopts = append(jopts, graphabcd.WithSource(o.src))
	}
	h, err := graphabcd.NewRuntime().Run(ctx, graphabcd.NewJobSpec(alg.Name, g, jopts...))
	if err != nil {
		return err
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		return err
	}
	stats := *res.Cluster
	printResult(alg, o.src, o.top, res, g, bcd.CF{})

	fmt.Printf("converged: %v\nnodes: %d\nepochs: %.2f\nblock updates: %d\nedges traversed: %d\nwall time: %v\nthroughput: %.1f MTEPS\n",
		stats.Converged, stats.Nodes, stats.Epochs, stats.BlockUpdates, stats.EdgesTraversed, stats.WallTime, stats.MTEPS())
	fmt.Printf("messages: %d in %d batches (%d local writes)\n",
		stats.MessagesSent, stats.BatchesSent, stats.LocalWrites)
	fmt.Printf("batches retried: %d, dropped: %d, duplicated: %d\nnodes failed: %d\n",
		stats.BatchesRetried, stats.BatchesDropped, stats.BatchesDuplicated, stats.NodesFailed)
	if stats.StallWindows > 0 {
		fmt.Printf("stall windows: %d\n", stats.StallWindows)
	}
	return writeValues(o.valuesOut, res)
}

// openEdgeStore prepares the requested edge storage backend, spilling the
// graph to a temporary file for the out-of-core modes.
func openEdgeStore(g *graph.Graph, kind string) (edgestore.Source, func(), error) {
	nop := func() {}
	switch kind {
	case "memory", "":
		return nil, nop, nil // engine default
	case "file", "compressed", "snapshot":
		dir, err := os.MkdirTemp("", "graphabcd-edges")
		if err != nil {
			return nil, nop, err
		}
		cleanup := func() { _ = os.RemoveAll(dir) } // best-effort temp cleanup
		path := filepath.Join(dir, "edges")
		var src edgestore.Source
		switch kind {
		case "file":
			if err = edgestore.WriteFile(g, path); err == nil {
				src, err = edgestore.OpenFile(g, path)
			}
		case "compressed":
			if err = edgestore.WriteCompressed(g, path); err == nil {
				src, err = edgestore.OpenCompressed(g, path)
			}
		case "snapshot":
			if err = graph.SaveFormat(path, g, graph.FormatSnapshot); err == nil {
				src, err = edgestore.OpenSnapshot(g, path)
			}
		}
		if err != nil {
			cleanup()
			return nil, nop, err
		}
		fmt.Printf("edge store: %s, %d bytes on disk\n", kind, src.Bytes())
		return src, func() { _ = src.Close(); cleanup() }, nil
	}
	return nil, nop, fmt.Errorf("unknown edgestore %q", kind)
}

func loadGraph(file, dataset string, shrink int, algo string) (*graph.Graph, error) {
	switch {
	case file != "":
		return graph.Load(file)
	case dataset != "":
		d, err := gen.Lookup(dataset)
		if err != nil {
			return nil, err
		}
		if d.Kind == gen.RatingKind {
			rg, err := d.BuildRating(shrink)
			if err != nil {
				return nil, err
			}
			return rg.Graph, nil
		}
		return d.BuildSocial(shrink, algo == "sssp")
	}
	return nil, fmt.Errorf("provide -graph FILE or -dataset NAME")
}

func maxOutDegreeVertex(g *graph.Graph) uint32 {
	best, deg := uint32(0), int32(-1)
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(uint32(v)); d > deg {
			best, deg = uint32(v), d
		}
	}
	return best
}

func printTopFloat(vals []float64, k int, label string) {
	type vv struct {
		v uint32
		x float64
	}
	all := make([]vv, 0, len(vals))
	for v, x := range vals {
		all = append(all, vv{uint32(v), x})
	}
	sort.Slice(all, func(a, b int) bool { return all[a].x > all[b].x })
	if k > len(all) {
		k = len(all)
	}
	for i := 0; i < k; i++ {
		fmt.Printf("top %s %d: vertex %d = %g\n", label, i+1, all[i].v, all[i].x)
	}
}

func countReached(levels []uint64) int {
	n := 0
	for _, l := range levels {
		if l != bcd.Unreached {
			n++
		}
	}
	return n
}

func countComponents(labels []uint64) int {
	seen := map[uint64]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	return len(seen)
}
