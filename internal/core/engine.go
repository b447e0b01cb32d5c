package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/checkpoint"
	"graphabcd/internal/graph"
	"graphabcd/internal/sched"
	"graphabcd/internal/telemetry"
)

// Run executes prog over g under cfg and returns the final vertex values
// with run statistics. Type parameters follow the program's (V, M); Go
// cannot infer them from a concrete program type, so callers instantiate
// explicitly, e.g. core.Run[float64, float64](g, bcd.PageRank{}, cfg).
func Run[V, M any](g *graph.Graph, prog bcd.Program[V, M], cfg Config) (*Result[V], error) {
	return RunContext[V, M](context.Background(), g, prog, cfg)
}

// RunContext is Run with cancellation and deadline support: when ctx is
// cancelled the engine stops scheduling, drains its workers, and returns
// the partial result with Stats.Converged == false and a nil error. A
// stall watchdog samples progress every Config.Watchdog period and
// reports no-progress windows in Stats.StallWindows.
func RunContext[V, M any](ctx context.Context, g *graph.Graph, prog bcd.Program[V, M], cfg Config) (*Result[V], error) {
	e, ck, err := prepare(ctx, g, prog, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.RecordSchedule != nil {
		e.rec = checkpoint.NewScheduleRecorder(cfg.RecordSchedule)
	}
	start := time.Now()
	stopWatch := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		e.watchdog(stopWatch)
	}()
	if ck != nil && cfg.Checkpoint.Interval > 0 {
		watch.Add(1)
		go func() {
			defer watch.Done()
			ck.loop(stopWatch)
		}()
	}
	var converged bool
	if cfg.Mode == BSP {
		converged = e.runBSP()
	} else {
		converged = e.runBlocked()
	}
	e.fixedPoint.Store(converged)
	close(stopWatch)
	watch.Wait()
	if b := e.st.Leftover(); converged && b >= 0 {
		// The workers have joined, so the bits hold still: a set one means
		// the quiescence counter read 0 while work remained.
		e.Fail(fmt.Errorf("core: run reported convergence with block %d still active or in flight", b))
	}
	if e.rec != nil {
		// A lost schedule is a corrupt replay; surface the sink's first
		// error as the run's.
		if err := e.rec.Close(); err != nil {
			e.Fail(fmt.Errorf("core: schedule recording: %w", err))
		}
	}
	if err := e.Err(); err != nil {
		return nil, err
	}
	return e.result(converged, time.Since(start)), nil
}

// prepare is the setup RunContext and ReplaySchedule share: validate the
// config, build the engine, and open the checkpointer and resume from it.
// It happens before any worker or watchdog goroutine starts: a resume
// failure must abort the run cleanly, and the restored state must be
// fully published before anyone reads it.
func prepare[V, M any](ctx context.Context, g *graph.Graph, prog bcd.Program[V, M], cfg Config) (*engine[V, M], *checkpointer[V, M], error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	e, err := newEngine(g, prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	e.ctx = ctx
	ck, err := newCheckpointer(e, cfg.Checkpoint)
	if err != nil {
		return nil, nil, err
	}
	if ck != nil && cfg.Checkpoint.Resume != "" {
		if err := ck.resume(cfg.Checkpoint.Resume); err != nil {
			return nil, nil, err
		}
	}
	return e, ck, nil
}

// engine holds the shared state of one run: the block kernel (graph,
// program, partition, value and image arrays — the single-node engine is
// its one-owner case) and everything that is scheduling around it.
type engine[V, M any] struct {
	*Kernel[V, M]
	// Latch stops the block workers: it trips on the first failure (an
	// edge-source error, a worker panic), which Run returns, and on the
	// pick that ends the run (quiescence, the epoch budget, cancellation).
	*Latch
	cfg Config
	// ctx carries the run's cancellation signal; the scheduling loops
	// poll it and stop gracefully with a partial result.
	ctx context.Context

	st *sched.State
	// tel is the run's telemetry registry (Config.Telemetry, or a private
	// bare-counter one). All work accounting goes through its per-worker
	// shards: shard 0 belongs to the watchdog, the checkpointer and BSP's
	// sweep loop, shards 1..NumPEs to the PE workers, the rest to the CPU
	// threads (hybrid workers, BSP's scatter sweep). The shard split is
	// what keeps counting off shared cache lines — the old single counter struct
	// false-shared between every worker.
	tel    *telemetry.Registry
	shards []telemetry.Shard
	sh0    *telemetry.Shard // watchdog/checkpointer shard
	live   bool             // tel records timings (histograms or tracing)
	nv     int64            // |V|, cached for the staleness observation

	// resumed is set when a checkpoint resume seeded values and scheduler
	// state; runWorkers then skips the fresh-run ActivateAll (resume did
	// its own mass-preserving activation).
	resumed bool
	// ckptGen increments at the start and end of every checkpoint capture
	// (odd while one is in progress). The watchdog skips stall windows
	// that overlapped a capture so checkpoint I/O never counts as an
	// engine stall (Stats.StallWindows stays a pure progress signal).
	ckptGen atomic.Int64
	// fixedPoint is set once the run has converged, before the
	// checkpointer is stopped: a capture still in flight then protects
	// nothing and is abandoned (checkpointer.capture), so a run that
	// converges just after a tick does not wait for that epoch's fsyncs.
	fixedPoint atomic.Bool
	// epochsSeen counts the epoch hook's firings; converged is set by the
	// pick that finds the run quiescent. Both are guarded by the loop's
	// pick lock (Loop), as are the scheduler and the schedule recording;
	// values, the images, the active bits and the priorities stay atomic.
	epochsSeen int
	converged  bool
	// rec, when non-nil, records every block id for deterministic replay,
	// in pick order — the order a sequential replay follows. It has one
	// producer: the worker holding the pick lock.
	rec *checkpoint.ScheduleRecorder

	// modeled byte widths for the accelerator cost model
	valueBytes int64 // encoded vertex value width
	edgeBytes  int64 // modeled per-edge stream: weight + the source's value, as the paper's in-edge copy holds it
}

func newEngine[V, M any](g *graph.Graph, prog bcd.Program[V, M], cfg Config) (*engine[V, M], error) {
	blockSize := cfg.BlockSize
	if cfg.Mode == BSP {
		blockSize = g.NumVertices() // full-gradient Jacobi
	}
	k, err := NewKernel(g, prog, blockSize, cfg.Edges, cfg.Epsilon, 0, 0, g.NumVertices())
	if err != nil {
		return nil, err
	}
	if cfg.Sim != nil {
		sc := cfg.Sim.Config()
		if cfg.NumPEs > sc.NumPEs {
			return nil, fmt.Errorf("core: NumPEs %d exceeds simulator's %d", cfg.NumPEs, sc.NumPEs)
		}
		if cfg.NumScatter > sc.CPUThreads {
			return nil, fmt.Errorf("core: NumScatter %d exceeds simulator's %d CPU threads", cfg.NumScatter, sc.CPUThreads)
		}
	}
	words := int64(k.Values.Words())
	e := &engine[V, M]{
		Kernel:     k,
		Latch:      NewLatch(),
		cfg:        cfg,
		st:         sched.NewState(k.Part.NumBlocks()),
		valueBytes: words * 8,
		edgeBytes:  words*8 + 4,
	}
	e.tel = cfg.Telemetry
	if e.tel == nil {
		e.tel = telemetry.New(telemetry.Options{})
	}
	// Shard 0 is the engine's own (see tel); PE workers take 1..NumPEs
	// and CPU threads the rest (the BSP sweeps reuse the same split).
	e.shards = e.tel.Shards(1 + cfg.NumPEs + cfg.NumScatter)
	e.sh0 = &e.shards[0]
	e.live = e.tel.Live()
	e.nv = int64(g.NumVertices())
	e.tel.SetVertices(g.NumVertices())
	e.tel.RegisterGauge("active_blocks", func() float64 { return float64(e.st.NumActive()) })
	e.tel.RegisterGauge("residual", e.st.PendingMass)
	return e, nil
}

// worker builds the kernel worker that counts into shard i. The engine is
// node 0 of a one-owner table, so it has no flush hook.
func (e *engine[V, M]) worker(i int) *Worker[V, M] {
	return e.NewWorker(&e.shards[i], 0, e.st, nil)
}

// maxVertexUpdates translates MaxEpochs into a vertex-update budget.
func (e *engine[V, M]) maxVertexUpdates() int64 {
	if e.cfg.MaxEpochs == 0 {
		return math.MaxInt64
	}
	return int64(e.cfg.MaxEpochs * float64(e.G.NumVertices()))
}

// vertexUpdates is the cross-shard total driving the epoch budget, the
// epoch hook, the watchdog, and the staleness observation.
func (e *engine[V, M]) vertexUpdates() int64 {
	return e.tel.Total(telemetry.CtrVertexUpdates)
}

func (e *engine[V, M]) stall(stage string) {
	if e.cfg.StallHook != nil {
		e.cfg.StallHook(stage)
	}
}

// cancelled reports whether the run's context has been cancelled or has
// passed its deadline.
func (e *engine[V, M]) cancelled() bool {
	return e.ctx != nil && e.ctx.Err() != nil
}

// workerPanic names the engine in the failure a recovered worker panic
// becomes (Latch.Recover). The panicked worker's in-flight block stays
// unfinished, so the other workers exit through the failed latch rather
// than quiescence.
const workerPanic = "core: worker panic"

// watchdog counts sampling periods in which no vertex update happened,
// surfacing them as Stats.StallWindows.
func (e *engine[V, M]) watchdog(stop <-chan struct{}) {
	period := e.cfg.watchdogPeriod()
	if period <= 0 {
		return
	}
	last := int64(-1)
	lastGen := e.ckptGen.Load()
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		progress := e.vertexUpdates()
		gen := e.ckptGen.Load()
		// A window is a stall only if no vertex updated AND no checkpoint
		// capture overlapped it (gen unchanged and even): pausing for
		// checkpoint I/O is paid-for durability, not an engine stall.
		if progress == last && gen == lastGen && gen%2 == 0 {
			e.sh0.Add(telemetry.CtrStallWindows, 1)
		}
		last, lastGen = progress, gen
	}
}

// blockWorker is one goroutine of the async/barrier worker pool: a kernel
// worker plus the scratch its block's GATHER-APPLY leaves for the same
// block's SCATTER, one entry per block vertex.
type blockWorker[V, M any] struct {
	*Worker[V, M]
	deltas []float64 // update magnitudes
	dvals  []V       // out-deltas (operation-based programs only)
	// cpu marks a hybrid worker: one of the NumScatter CPU threads that
	// take GATHER-APPLY work (Sec. IV-B). It counts HybridBlocks, and the
	// cost model charges its gathers to a CPU thread while the CPU side
	// has slack.
	cpu bool
}

// newBlockWorker builds the pool worker that counts into shard i.
func (e *engine[V, M]) newBlockWorker(i int, cpu bool) *blockWorker[V, M] {
	w := &blockWorker[V, M]{Worker: e.worker(i), deltas: make([]float64, e.Part.BlockSize()), cpu: cpu}
	if e.op != nil {
		w.dvals = make([]V, e.Part.BlockSize())
	}
	return w
}

// runBlocked executes Async and Barrier modes. It reports whether the run
// converged (as opposed to hitting the MaxEpochs budget or being
// cancelled).
func (e *engine[V, M]) runBlocked() bool {
	var next func() (int, bool)
	if e.cfg.Mode == Barrier {
		next = e.nextInWave()
	} else {
		s, err := sched.New(e.cfg.Policy, e.st, e.cfg.Seed)
		if err != nil {
			// Config.Validate rejects unknown policies, so this is normally
			// unreachable — but a scheduler failure must surface as an error
			// from Run, never crash the process.
			e.Fail(err)
			return false
		}
		next = func() (int, bool) {
			if b, ok := s.Next(); ok {
				return b, true
			}
			e.stopIfQuiescent()
			return 0, false
		}
	}
	// One worker per PE; hybrid execution adds the CPU threads as
	// workers that take GATHER-APPLY work too (Sec. IV-B).
	workers := e.cfg.NumPEs
	if e.cfg.Hybrid {
		workers += e.cfg.NumScatter
	}
	e.runWorkers(workers, next)
	return e.converged
}

// nextInWave is Barrier mode's pick, the 'Barrier' baseline of Fig. 7: it
// hands out the current wave's blocks, and once the wave is handed out
// and fully retired it models the wave barrier and claims a fresh wave —
// every block claimable now. Blocks activated while a wave runs wait for
// the next one, which is what distinguishes synchronized execution from
// the async engine; convergence matches Async, but workers idle at every
// wave tail. The wave is the pick's private state, guarded by the loop's
// lock.
func (e *engine[V, M]) nextInWave() func() (int, bool) {
	var wave []int
	next := 0
	return func() (int, bool) {
		if next == len(wave) {
			if e.tel.Total(telemetry.CtrTasksFinished) < e.tel.Total(telemetry.CtrTasksIssued) {
				return 0, false // the wave's tail is still in flight
			}
			if e.cfg.Sim != nil {
				e.cfg.Sim.Barrier() // model the wave barrier's idle time
			}
			wave, next = wave[:0], 0
			for b := 0; b < e.Part.NumBlocks(); b++ {
				if e.st.Active(b) && !e.st.InFlight(b) && e.st.Claim(b) {
					wave = append(wave, b)
				}
			}
			if len(wave) == 0 {
				e.stopIfQuiescent()
				return 0, false
			}
		}
		next++
		return wave[next-1], true
	}
}

// stopIfQuiescent ends the run once nothing is active or in flight: the
// termination unit of the Sec. IV-C flow. A pick that claimed nothing
// calls it; quiescence is final, since only an in-flight block's scatter
// activates blocks.
func (e *engine[V, M]) stopIfQuiescent() {
	if e.st.Quiescent() {
		e.converged = true
		e.Stop()
	}
}

// runWorkers activates every block (unless a resume did) and runs n
// workers of the block-worker loop until the run stops, each running its
// blocks through step. Workers 0..NumPEs-1 are the PEs; the rest are
// hybrid CPU threads. The loop's pick, under its lock, fires the epoch
// hook, stops the run if it is cancelled or out of budget, then claims a
// block through next and records it.
func (e *engine[V, M]) runWorkers(n int, next func() (int, bool)) {
	if !e.resumed {
		e.st.ActivateAll(1)
	}
	budget := e.maxVertexUpdates()
	loop := &Loop{Latch: e.Latch, Tel: e.tel, Panic: workerPanic, Pick: func() (int, bool) {
		e.epochsSeen = e.fireEpochHook(e.epochsSeen)
		if e.cancelled() || e.vertexUpdates() >= budget {
			e.Stop()
			return 0, false
		}
		b, ok := next()
		if ok && e.rec != nil {
			e.rec.Record(b)
		}
		return b, ok
	}}
	yield := n > runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := e.newBlockWorker(1+i, i >= e.cfg.NumPEs)
			loop.Work(w.Sh, yield, func(b int) {
				if e.cfg.Sim != nil {
					e.chargeGather(b, w.cpu)
				}
				e.step(b, w)
				e.stall("schedule")
			})
		}(i)
	}
	wg.Wait()
}

// fireEpochHook invokes OnEpoch for every freshly completed
// epoch-equivalent, records a convergence sample into the telemetry
// registry, and returns the updated count.
func (e *engine[V, M]) fireEpochHook(seen int) int {
	if e.cfg.OnEpoch == nil && !e.live {
		return seen
	}
	n := e.nv
	if n == 0 {
		return seen
	}
	for done := int(e.vertexUpdates() / n); seen < done; {
		seen++
		if e.cfg.OnEpoch != nil {
			e.cfg.OnEpoch(seen)
		}
		e.tel.RecordConvergence(seen, e.st.PendingMass(), e.st.NumActive())
	}
	return seen
}

// chargeGather bills block b's GATHER-APPLY to the accelerator cost model
// before it runs (the edges it streams are the partition's). The PE/CPU
// split is the model's attribute, not the worker's: the gather goes to a
// PE unless a hybrid worker runs it while the modeled CPU side trails the
// PEs — the paper's "runtime detects the CPU is under-utilized" condition
// (Sec. IV-B); a host gather costs ~CPUGatherNsPerEdge per edge, far more
// than the streaming PE path. step bills every scatter to a CPU thread.
func (e *engine[V, M]) chargeGather(b int, cpu bool) {
	sim := e.cfg.Sim
	lo, hi := e.Part.VertexRange(b)
	edges := e.G.InOffset(hi) - e.G.InOffset(lo)
	if cpu && sim.CPUHasSlack() {
		sim.LeastLoadedCPU().RunGather(edges, edges*e.edgeBytes)
	} else {
		sim.LeastLoadedPE().RunBlock(edges, edges*e.edgeBytes, int64(hi-lo)*e.valueBytes)
	}
}

// step runs one claimed block through the kernel: GATHER-APPLY into the
// worker's scratch, SCATTER of the same deltas, then retire the block, as
// a cluster node's block step does. Marking the block done last
// keeps the termination unit's quiescence test sound. The pool workers
// and ReplaySchedule both run blocks through it. Stage latencies and the
// block's read-to-publish staleness land in the worker's shard.
//
//abcd:hotpath
func (e *engine[V, M]) step(b int, w *blockWorker[V, M]) {
	e.stall("gather")
	lo, hi := e.Part.VertexRange(b)
	deltas := w.deltas[:hi-lo]
	gStart := e.tel.Stamp()
	// readV is the global vertex-update count when the gather read its
	// inputs; the publish end subtracts it to observe the block's
	// staleness in milli-epochs.
	var readV int64
	if e.live {
		readV = e.vertexUpdates()
	}
	if _, err := e.GatherApply(lo, hi, deltas, w.dvals, w.Worker); err != nil {
		// GatherApply zeroed deltas: the scatter below publishes nothing
		// and the block still retires.
		e.Fail(err)
	} else {
		w.Sh.Add(telemetry.CtrBlockUpdates, 1)
	}
	if w.cpu {
		w.Sh.Add(telemetry.CtrHybridBlocks, 1)
	}
	sStart := e.tel.Stamp()
	w.Sh.Observe(telemetry.StageGather, sStart-gStart)
	w.Sh.Trace(telemetry.StageGather, b, gStart, sStart-gStart)

	e.stall("scatter")
	writes := e.Scatter(lo, hi, deltas, w.dvals, w.Worker)
	if sim := e.cfg.Sim; sim != nil && writes > 0 {
		sim.LeastLoadedCPU().RunScatter(writes, writes*e.valueBytes)
	}
	e.st.Done(b)
	if end := e.tel.Stamp(); e.live {
		w.Sh.Observe(telemetry.StageScatter, end-sStart)
		w.Sh.Trace(telemetry.StageScatter, b, sStart, end-sStart)
		if e.nv > 0 {
			w.Sh.Observe(telemetry.StageStaleness, (e.vertexUpdates()-readV)*1000/e.nv)
		}
	}
}

// result decodes the final values and assembles statistics: Stats is the
// final merged snapshot of the run's telemetry registry.
func (e *engine[V, M]) result(converged bool, wall time.Duration) *Result[V] {
	st := StatsFromTelemetry(e.tel, int(e.nv), converged, wall)
	if e.cfg.Sim != nil {
		st.SimTimeNs = e.cfg.Sim.SimTimeNs()
	}
	return &Result[V]{Values: e.CollectValues(), Stats: st}
}
