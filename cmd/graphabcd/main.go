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
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

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
	// Every flag that mirrors a config field takes its default from that
	// field's owner, so -h shows the value a zero field resolves to.
	engine, clus := core.DefaultConfig(0), cluster.Config{}.WithDefaults()
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
		pes       = flag.Int("pes", engine.NumPEs, "block workers: each gathers then scatters its own block (the accelerator PEs)")
		scatter   = flag.Int("scatter", engine.NumScatter, "CPU threads: BSP's scatter sweep, and the extra block workers of -hybrid")
		hybrid    = flag.Bool("hybrid", false, "hybrid execution: -scatter CPU threads also run blocks")
		eps       = flag.Float64("eps", engine.Epsilon, "activation threshold")
		maxEpochs = flag.Float64("max-epochs", 0, "epoch budget (0 = run to convergence)")
		useSim    = flag.Bool("sim", false, "attach the HARPv2 accelerator model")
		store     = flag.String("edgestore", "memory", "edge storage backend: memory | file | compressed | snapshot (non-memory backends spill to a temp file and stream out-of-core)")
		top       = flag.Int("top", 5, "print the top-K vertices by value")
		rank      = flag.Int("rank", graphabcd.DefaultCF().Rank, "cf: factor rank")

		timeout    = flag.Duration("timeout", 0, "cancel the run after this duration and report the partial result (0 = none)")
		nodes      = flag.Int("nodes", 1, "cluster nodes; >1 runs pr/sssp/bfs/cc on the distributed engine")
		wpn        = flag.Int("workers-per-node", clus.WorkersPerNode, "distributed: workers per node")
		batch      = flag.Int("batch", clus.BatchSize, "distributed: changed-vertex images per message batch")
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
		ckptInterval = flag.Duration("ckpt-interval", checkpoint.DefaultInterval, "checkpoint period (needs -ckpt-dir)")
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

	tOpts := telemetryOpts{
		enabled:     *useTel,
		tracePath:   *tracePath,
		traceSample: *traceSample,
		metricsAddr: *metricsAddr,
		progress:    *progress,
		cluster:     *listenAddr != "",
		distributed: *listenAddr != "" || *nodes > 1,
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
		jOpts := tOpts
		jOpts.progress, jOpts.cluster, jOpts.distributed = false, false, true
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

	// Every front end dispatches through the registry: -listen included.
	alg, err := graphabcd.LookupAlgorithm(*algo)
	if err != nil {
		return err
	}
	// A -listen coordinator serves a plain snapshot in place (stageSnapshot)
	// and never runs on the graph, so it reads only the header and, for a
	// default source, the out-offsets.
	needSrc := alg.NeedsSource && !srcSet
	src := uint32(*source)
	var g *graph.Graph
	peeked := false
	if *listenAddr != "" && *saveGraph == "" && *graphFile != "" {
		if n, m, best, err := peekPlainSnapshot(*graphFile, needSrc); err == nil {
			fmt.Printf("graph: graph{V=%d E=%d}\n", n, m)
			if needSrc {
				src = best
			}
			peeked = true
		}
	}
	if !peeked {
		if g, err = loadGraph(*graphFile, *dataset, *shrink, alg.Name); err != nil {
			return err
		}
		fmt.Printf("graph: %s\n", g)
		if *saveGraph != "" {
			if err := graph.Save(*saveGraph, g); err != nil {
				return err
			}
			fmt.Printf("saved: %s (%s)\n", *saveGraph, graph.DetectSaveFormat(*saveGraph, graph.FormatAuto))
		}
		if needSrc {
			src = maxOutDegreeVertex(g.NumVertices(), g.OutOffset)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var tses *telemetrySession
	var telReg *telemetry.Registry
	if tOpts.active() {
		if tses, err = startTelemetry(tOpts); err != nil {
			return err
		}
		telReg = tses.reg
	}

	// The flags build one JobSpec. Its Config runs a single-node job; its
	// Cluster, set for -nodes N and -listen, runs the same job on a
	// cluster. Zero fields are left for Runtime.Run (or, under -listen,
	// tcp.Serve) to resolve.
	cfg := core.Config{
		BlockSize:  *block,
		NumPEs:     *pes,
		NumScatter: *scatter,
		Hybrid:     *hybrid,
		Epsilon:    *eps,
		MaxEpochs:  *maxEpochs,
		Seed:       1,
		Telemetry:  telReg,
		Checkpoint: core.Checkpoint{Dir: *ckptDir, RunID: *runID, Resume: *resume},
	}
	if *ckptDir != "" {
		cfg.Checkpoint.Interval = *ckptInterval
	}
	ccfg := cluster.Config{
		Nodes:          *nodes,
		BlockSize:      *block,
		WorkersPerNode: *wpn,
		BatchSize:      *batch,
		Epsilon:        *eps,
		MaxEpochs:      *maxEpochs,
		Telemetry:      telReg,
	}
	cf := graphabcd.DefaultCF()
	cf.Rank = *rank
	jopts := []graphabcd.JobOption{graphabcd.WithCFParams(cf)}
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
	var (
		sim     *accel.Simulator
		recFile *os.File
	)
	switch {
	case *listenAddr != "":
		jopts = append(jopts, graphabcd.WithClusterConfig(ccfg))
	case *nodes > 1:
		if *ckptDir != "" || *resume != "" {
			return fmt.Errorf("the in-process cluster engine does not checkpoint; use -listen for a crash-safe distributed run")
		}
		if *chaosDrop > 0 || *chaosDup > 0 || *chaosDelay > 0 || *failNode >= 0 {
			tcfg := chaos.Config{
				Seed:     *chaosSeed,
				DropRate: *chaosDrop,
				DupRate:  *chaosDup,
				MaxDelay: *chaosDelay,
			}
			if *failNode >= 0 {
				ctl := make(chan cluster.Control, 1)
				ccfg.OnStart = func(c cluster.Control) { ctl <- c }
				tcfg.AfterBatches = *failAfter
				tcfg.OnFault = func() {
					c := <-ctl
					if err := c.FailNode(*failNode); err != nil {
						fmt.Fprintln(os.Stderr, "graphabcd: fail-node:", err)
					}
				}
			}
			ccfg.Transport = chaos.New(tcfg)
			fmt.Printf("chaos: drop=%.2f dup=%.2f delay=%v seed=%d\n", *chaosDrop, *chaosDup, *chaosDelay, *chaosSeed)
		}
		jopts = append(jopts, graphabcd.WithClusterConfig(ccfg))
	default:
		edges, cleanup, err := openEdgeStore(g, *store)
		if err != nil {
			return err
		}
		defer cleanup()
		cfg.Edges = edges
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
		if *replayPath != "" {
			f, err := os.Open(*replayPath)
			if err != nil {
				return err
			}
			// The recording is checked against the block count the run
			// will use, so resolve the block size the way Runtime.Run will.
			bs := *block
			if bs == 0 {
				bs = graph.DefaultBlockSize(g.NumVertices())
			}
			schedule, err := checkpoint.ReadSchedule(f, (g.NumVertices()+bs-1)/bs)
			_ = f.Close()
			if err != nil {
				return err
			}
			fmt.Printf("replaying %d scheduled blocks from %s\n", len(schedule), *replayPath)
			jopts = append(jopts, graphabcd.WithSchedule(schedule))
		} else if *recordPath != "" {
			if recFile, err = os.Create(*recordPath); err != nil {
				return err
			}
			defer func() { _ = recFile.Close() }() // double close on success is harmless
			cfg.RecordSchedule = recFile
		}
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
	}
	spec := graphabcd.NewJobSpec(alg.Name, g, append(jopts, graphabcd.WithConfig(cfg))...)

	if *listenAddr != "" {
		err := runListen(ctx, alg, spec, *graphFile, *listenAddr, tses, *top, *valuesOut)
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
	h, err := graphabcd.NewRuntime().Run(ctx, spec)
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
	printResult(os.Stdout, alg, src, *top, res, g)

	stats, clusterStats := res.Stats, res.Cluster
	fmt.Printf("converged: %v\n", stats.Converged)
	if clusterStats != nil {
		fmt.Printf("nodes: %d\n", clusterStats.Nodes)
	}
	fmt.Printf("epochs: %.2f\nblock updates: %d\nedges traversed: %d\nwall time: %v\nthroughput: %.1f MTEPS\n",
		stats.Epochs, stats.BlockUpdates, stats.EdgesTraversed, stats.WallTime, stats.MTEPS())
	if c := clusterStats; c != nil {
		fmt.Printf("messages: %d in %d batches (%d local writes)\n", c.MessagesSent, c.BatchesSent, c.LocalWrites)
		fmt.Printf("batches retried: %d, dropped: %d, duplicated: %d\nnodes failed: %d\n",
			c.BatchesRetried, c.BatchesDropped, c.BatchesDuplicated, c.NodesFailed)
	}
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

// distConfig is the one conversion from the CLI's JobSpec to the -listen
// coordinator's config. It refuses what a TCP cluster cannot run: an
// algorithm the registry does not mark distributed, and an epoch budget,
// which would need a cluster-wide update count the control lane does not
// keep.
func distConfig(alg *graphabcd.AlgorithmSpec, spec graphabcd.JobSpec) (tcp.DistConfig, error) {
	if err := alg.CheckDistributed(); err != nil {
		return tcp.DistConfig{}, err
	}
	c, ck := spec.Cluster, spec.Config.Checkpoint
	if c.MaxEpochs != 0 {
		return tcp.DistConfig{}, fmt.Errorf("-max-epochs is not supported with -listen: a TCP cluster runs to convergence (bound it with -timeout)")
	}
	return tcp.DistConfig{
		Nodes:              c.Nodes,
		Algo:               alg.Name,
		Source:             spec.Source,
		BlockSize:          c.BlockSize,
		WorkersPerNode:     c.WorkersPerNode,
		BatchSize:          c.BatchSize,
		Epsilon:            c.Epsilon,
		Telemetry:          c.Telemetry,
		CheckpointDir:      ck.Dir,
		CheckpointInterval: ck.Interval,
		RunID:              ck.RunID,
		Resume:             ck.Resume,
	}, nil
}

// runListen runs the coordinator side of a TCP cluster: the spec's graph
// is served from a plain snapshot (the section server needs positioned
// reads) — graphFile, the file it was loaded from, when it is one —
// joiners are awaited on the control listener, and the collected values
// are reported like a local run.
func runListen(ctx context.Context, alg *graphabcd.AlgorithmSpec, spec graphabcd.JobSpec, graphFile, addr string, tses *telemetrySession, top int, valuesOut string) error {
	cfg, err := distConfig(alg, spec)
	if err != nil {
		return err
	}
	if tses != nil {
		cfg.Cluster, cfg.Health = tses.cluster, tses.health
	}
	// The last use of the spec: from here on the nodes run on sections,
	// and nothing may keep the whole loaded graph live through Serve.
	snapPath, cleanup, err := stageSnapshot(graphFile, spec.Graph)
	if err != nil {
		return err
	}
	defer cleanup()
	ctrl, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer func() { _ = ctrl.Close() }()
	fmt.Printf("coordinating %d nodes on %s (%d joiners expected)\n", cfg.Nodes, ctrl.Addr(), cfg.Nodes-1)
	res, err := tcp.Serve(ctx, ctrl, snapPath, cfg)
	if err != nil {
		return err
	}
	values := &graphabcd.JobResult{Float: res.Float, Uint: res.Uint}
	// No graph: only cf's rmse line reads it, and cf never runs here.
	printResult(os.Stdout, alg, cfg.Source, top, values, nil)
	fmt.Printf("nodes: %d\nbatches sent: %d\nwall time: %v\n", cfg.Nodes, res.BatchesSent, res.WallTime)
	if w := res.Wire; w.FramesSent > 0 || w.FramesRecv > 0 {
		fmt.Printf("wire: %d B in %d frames sent, %d B in %d frames recv, %d reconnects, %d drops (%d crc), queue high water %d\n",
			w.BytesSent, w.FramesSent, w.BytesRecv, w.FramesRecv,
			w.Reconnects, w.Drops, w.CRCDrops, w.QueueHighWater)
	}
	return writeValues(valuesOut, values)
}

// peekPlainSnapshot reports the vertex and edge counts of file when it is
// a plain snapshot, and, when needSrc, its max out-degree vertex, read
// from the out-offset section alone.
func peekPlainSnapshot(file string, needSrc bool) (n, m int, src uint32, err error) {
	f, n, m, _, err := graph.OpenPlainSnapshot(file)
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() { _ = f.Close() }() // read-only: nothing to flush
	if needSrc {
		off, err := graph.ReadPlainOffsets(f, n, m, true)
		if err != nil {
			return 0, 0, 0, err
		}
		src = maxOutDegreeVertex(n, func(v int) int64 { return off[v] })
	}
	return n, m, src, nil
}

// stageSnapshot returns the path of a plain snapshot of g for tcp.Serve's
// positioned section reads: file itself when it is one — g was loaded
// from it unchanged — and otherwise g saved into a fresh temp dir, which
// cleanup removes.
func stageSnapshot(file string, g *graph.Graph) (path string, cleanup func(), err error) {
	if file != "" {
		if f, _, _, _, err := graph.OpenPlainSnapshot(file); err == nil {
			_ = f.Close() // opened read-only to validate; nothing to flush
			return file, func() {}, nil
		}
	}
	dir, err := os.MkdirTemp("", "graphabcd-dist")
	if err != nil {
		return "", nil, err
	}
	cleanup = func() { _ = os.RemoveAll(dir) } // best-effort temp cleanup
	path = filepath.Join(dir, "graph.gabs")
	if err := graph.SaveFormat(path, g, graph.FormatSnapshot); err != nil {
		cleanup()
		return "", nil, err
	}
	return path, cleanup, nil
}

// printResult prints a finished job's headline lines. The registry
// entry's value kind picks the shape; every front end (local, -nodes N,
// -listen) prints through here.
func printResult(out io.Writer, alg *graphabcd.AlgorithmSpec, src uint32, top int, res *graphabcd.JobResult, g *graph.Graph) {
	switch alg.Values {
	case graphabcd.FloatValues:
		label := "rank"
		if alg.NeedsSource {
			_, _ = fmt.Fprintf(out, "source: %d, reached: %d\n", src, countFinite(res.Float))
			label = "dist"
		}
		printTopFloat(out, res.Float, top, label)
	case graphabcd.VectorValues:
		_, _ = fmt.Fprintf(out, "rmse: %.4f\n", graphabcd.CF{}.RMSE(g, res.Vectors))
	case graphabcd.UintValues:
		switch alg.Name {
		case "bfs":
			_, _ = fmt.Fprintf(out, "source: %d, reached: %d\n", src, countReached(res.Uint))
		case "kcore":
			_, _ = fmt.Fprintf(out, "max core: %d\n", slices.Max(append(res.Uint, 0)))
		case "labelprop":
			_, _ = fmt.Fprintf(out, "communities: %d\n", countComponents(res.Uint))
		default:
			_, _ = fmt.Fprintf(out, "components: %d\n", countComponents(res.Uint))
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
		// strconv writes the bytes fmt's %.17g and %d would.
		w := bufio.NewWriter(out)
		var line []byte
		for _, v := range res.Float {
			line = append(strconv.AppendFloat(line[:0], v, 'g', 17, 64), '\n')
			_, _ = w.Write(line)
		}
		for _, v := range res.Uint {
			line = append(strconv.AppendUint(line[:0], v, 10), '\n')
			_, _ = w.Write(line)
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

// maxOutDegreeVertex is the default sssp/bfs source: the lowest-id vertex
// of largest out-degree among n vertices with CSR offsets outOff.
func maxOutDegreeVertex(n int, outOff func(v int) int64) uint32 {
	best, deg := uint32(0), int64(-1)
	for v := 0; v < n; v++ {
		if d := outOff(v+1) - outOff(v); d > deg {
			best, deg = uint32(v), d
		}
	}
	return best
}

// printTopFloat prints the k largest values, largest first and ties by
// lower vertex id, keeping k candidates instead of sorting all of vals.
// printTopFloat prints the k vertices with the largest finite values,
// largest first: the top ranks, or the farthest reached vertices of a
// shortest-path run, whose unreached vertices sit at +Inf.
func printTopFloat(out io.Writer, vals []float64, k int, label string) {
	k = min(k, len(vals))
	if k <= 0 {
		return
	}
	top := make([]uint32, 0, k) // vertex ids, best first
	for v, x := range vals {
		if math.IsInf(x, 1) {
			continue
		}
		i := len(top)
		if i == k {
			if !(x > vals[top[k-1]]) {
				continue
			}
			i--
		} else {
			top = append(top, 0)
		}
		for ; i > 0 && x > vals[top[i-1]]; i-- {
			top[i] = top[i-1]
		}
		top[i] = uint32(v)
	}
	for i, v := range top {
		_, _ = fmt.Fprintf(out, "top %s %d: vertex %d = %g\n", label, i+1, v, vals[v])
	}
}

// countFinite counts the vertices a shortest-path run reached.
func countFinite(dists []float64) int {
	n := 0
	for _, d := range dists {
		if !math.IsInf(d, 1) {
			n++
		}
	}
	return n
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
