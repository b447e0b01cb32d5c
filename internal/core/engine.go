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
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e, err := newEngine(g, prog, cfg)
	if err != nil {
		return nil, err
	}
	e.ctx = ctx
	// Checkpoint setup and resume happen before any worker or watchdog
	// goroutine starts: a resume failure must abort the run cleanly, and
	// the restored state must be fully published before anyone reads it.
	ck, err := newCheckpointer(e, cfg.Checkpoint)
	if err != nil {
		return nil, err
	}
	if ck != nil && cfg.Checkpoint.Resume != "" {
		if err := ck.resume(cfg.Checkpoint.Resume); err != nil {
			return nil, err
		}
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
	if ck != nil && ck.interval > 0 {
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
	close(stopWatch)
	watch.Wait()
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

// engine holds the shared state of one run: the block kernel (graph,
// program, partition, value and cache arrays — the single-node engine is
// its one-owner case) and everything that is scheduling around it.
type engine[V, M any] struct {
	*Kernel[V, M]
	// Latch holds the first failure (an edge-source error, a worker panic);
	// the scheduler aborts the run when it is set and Run returns it, and
	// goroutines parked on channel sends abort on its Done channel.
	*Latch
	cfg Config
	// ctx carries the run's cancellation signal; the scheduling loops
	// poll it and stop gracefully with a partial result.
	ctx context.Context

	st *sched.State
	// tel is the run's telemetry registry (Config.Telemetry, or a private
	// bare-counter one). All work accounting goes through its per-worker
	// shards: shard 0 belongs to the scheduler and the watchdog, shards
	// 1..NumPEs to the PE workers, the rest to the scatter workers. The
	// shard split is what keeps counting off shared cache lines — the old
	// single counter struct false-shared between every worker.
	tel    *telemetry.Registry
	shards []telemetry.Shard
	sh0    *telemetry.Shard // scheduler/watchdog shard
	live   bool             // tel records timings (histograms or tracing)
	nv     int64            // |V|, cached for the staleness observation

	// free recycles block buffers from the scatter stage back to the
	// gather stage. A channel the run owns, so it is garbage with the run:
	// a Pool of package sync here would keep the finished engine reachable
	// through the runtime's pool list for two more GC cycles.
	free chan *blockBuf[V]

	// resumed is set when a checkpoint resume seeded values and scheduler
	// state; runBlocked then skips the fresh-run ActivateAll (resume did
	// its own mass-preserving activation).
	resumed bool
	// ckptGen increments at the start and end of every checkpoint capture
	// (odd while one is in progress). The watchdog skips stall windows
	// that overlapped a capture so checkpoint I/O never counts as an
	// engine stall (Stats.StallWindows stays a pure progress signal).
	ckptGen atomic.Int64
	// rec, when non-nil, records every issued block id for deterministic
	// replay. Only the scheduler goroutine writes to it.
	rec *checkpoint.ScheduleRecorder

	// modeled byte widths for the accelerator cost model
	valueBytes int64 // encoded vertex value width
	edgeBytes  int64 // streamed per-edge payload: weight + cached value
}

func newEngine[V, M any](g *graph.Graph, prog bcd.Program[V, M], cfg Config) (*engine[V, M], error) {
	blockSize := cfg.BlockSize
	if cfg.Mode == BSP {
		blockSize = g.NumVertices() // full-gradient Jacobi
	}
	k, err := NewKernel(g, prog, blockSize, cfg.Edges, cfg.Epsilon, 0)
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
	// Shard 0 is the scheduler's; gather workers take 1..NumPEs and
	// scatter workers the rest (the BSP sweeps reuse the same split).
	e.shards = e.tel.Shards(1 + cfg.NumPEs + cfg.NumScatter)
	e.sh0 = &e.shards[0]
	e.live = e.tel.Live()
	e.nv = int64(g.NumVertices())
	e.tel.SetVertices(g.NumVertices())
	e.tel.RegisterGauge("active_blocks", func() float64 { return float64(e.st.NumActive()) })
	e.tel.RegisterGauge("residual", e.st.PendingMass)
	// A buffer is live from its gather's start to its scatter's end: at
	// most one per worker plus the CPU queue's depth, so a put never finds
	// the list full.
	e.free = make(chan *blockBuf[V], cfg.NumPEs+cfg.NumScatter+max(cfg.QueueDepth, 2*cfg.NumScatter))
	e.eachSlice(e.Init)
	return e, nil
}

// worker builds the kernel worker that counts into shard i. The engine is
// node 0 of a one-owner table, so it has no flush hook.
func (e *engine[V, M]) worker(i int) *Worker[V, M] {
	return e.NewWorker(&e.shards[i], 0, e.st, nil)
}

// eachSlice runs fn over the vertex set cut into one contiguous slice per
// worker, in parallel; an edge-source error fails the run.
func (e *engine[V, M]) eachSlice(fn func(vlo, vhi int) error) {
	n := e.G.NumVertices()
	workers := e.cfg.NumPEs + e.cfg.NumScatter
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(vlo, vhi int) {
			defer wg.Done()
			if err := fn(vlo, vhi); err != nil {
				e.Fail(err)
			}
		}(w*n/workers, (w+1)*n/workers)
	}
	wg.Wait()
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
// unfinished, so the scheduler exits through the failure check rather
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

// blockItem carries one scheduled block into the accelerator queue; enq
// is the issue Stamp, so the consumer can observe the queue wait.
type blockItem struct {
	b   int
	enq int64
}

// blockBuf is what one block's GATHER-APPLY leaves for its SCATTER, one
// entry per block vertex.
type blockBuf[V any] struct {
	deltas []float64 // update magnitudes
	dvals  []V       // out-deltas (operation-based programs only)
}

// task carries one processed block from GATHER-APPLY to SCATTER.
type task[V any] struct {
	block int
	buf   *blockBuf[V] // recycled through engine.free
	enq   int64        // Stamp at hand-off to the CPU queue
	// gatherV is the global vertex-update count when the gather read its
	// inputs; the scatter end subtracts it to observe per-block staleness
	// in milli-epochs. 0 when timing is disabled.
	gatherV int64
}

// runBlocked executes Async and Barrier modes. It reports whether the run
// converged (as opposed to hitting the MaxEpochs budget).
func (e *engine[V, M]) runBlocked() bool {
	nb := e.Part.NumBlocks()
	if !e.resumed {
		e.st.ActivateAll(1)
	}
	scheduler, err := sched.New(e.cfg.Policy, e.st, e.cfg.Seed)
	if err != nil {
		// Config.Validate rejects unknown policies, so this is normally
		// unreachable — but a scheduler failure must surface as an error
		// from Run, never crash the process.
		e.Fail(err)
		return false
	}

	// The task queues are small FIFOs, as on the HARPv2 prototype. Their
	// depth is the engine's staleness bound: a gather can run at most
	// ~2xNumPEs block-slots ahead of the scatter that publishes fresh
	// values, which keeps the asynchronous execution inside the bounded
	// delay that asynchronous BCD's convergence guarantee requires
	// (Sec. III-D) and preserves the Gauss-Seidel freshness that makes
	// small blocks converge faster (Sec. III-C). Deep queues would let
	// the gather pipeline race arbitrarily far ahead of scatter and
	// degenerate the engine toward Jacobi.
	qcap := func(workers int) int {
		c := e.cfg.QueueDepth
		if c == 0 {
			c = 2 * workers
		}
		if c > nb {
			c = nb
		}
		if c < 1 {
			c = 1
		}
		return c
	}
	accelQ := make(chan blockItem, qcap(e.cfg.NumPEs))
	cpuQ := make(chan task[V], qcap(e.cfg.NumScatter))
	e.tel.RegisterGauge("accel_queue_depth", func() float64 { return float64(len(accelQ)) })
	e.tel.RegisterGauge("cpu_queue_depth", func() float64 { return float64(len(cpuQ)) })

	var peWG, scatWG sync.WaitGroup
	for i := 0; i < e.cfg.NumPEs; i++ {
		peWG.Add(1)
		go func(i int) {
			defer peWG.Done()
			e.peWorker(i, accelQ, cpuQ)
		}(i)
	}
	hybridQ := accelQ
	if !e.cfg.Hybrid {
		hybridQ = nil
	}
	for j := 0; j < e.cfg.NumScatter; j++ {
		scatWG.Add(1)
		go func(j int) {
			defer scatWG.Done()
			e.scatterWorker(j, cpuQ, hybridQ)
		}(j)
	}

	converged := e.schedule(scheduler, accelQ)

	close(accelQ)
	peWG.Wait()
	close(cpuQ)
	scatWG.Wait()
	return converged
}

// schedule is the termination unit plus scheduler of the Sec. IV-C flow
// (steps 1-2): it dispatches blocks until the active list drains
// (converged) or the epoch budget is exhausted. The only mode-dependent
// step is what one dispatch is: Async issues the scheduler's next block;
// Barrier — the 'Barrier' baseline of Fig. 7 — issues a whole wave and
// drains it.
func (e *engine[V, M]) schedule(s sched.Scheduler, accelQ chan<- blockItem) bool {
	budget := e.maxVertexUpdates()
	spins := 0
	epochsSeen := 0
	for {
		e.stall("schedule")
		epochsSeen = e.fireEpochHook(epochsSeen)
		if e.Err() != nil || e.cancelled() || e.vertexUpdates() >= budget {
			return false
		}
		if e.st.Quiescent() {
			return true
		}
		issued, ok := 0, true
		if e.cfg.Mode == Barrier {
			issued, ok = e.dispatchWave(accelQ)
		} else if b, claimed := s.Next(); claimed {
			issued, ok = 1, e.dispatch(accelQ, b)
		}
		switch {
		case !ok:
			return false
		case issued == 0:
			// Nothing claimable: blocks are in flight. Yield and re-poll.
			idle(&spins)
		default:
			spins = 0
		}
	}
}

// dispatch issues one claimed block: count it, record it for replay,
// enqueue it. false means the queue can no longer drain (sendBlock).
func (e *engine[V, M]) dispatch(accelQ chan<- blockItem, b int) bool {
	e.sh0.Add(telemetry.CtrTasksIssued, 1)
	if e.rec != nil {
		e.rec.Record(b)
	}
	return e.sendBlock(accelQ, b)
}

// sendBlock enqueues a claimed block, aborting if a worker failure or
// cancellation means the queue may never drain (all consumers of a stage
// can die when their panics are converted to run failures). The sender
// parks — no polling — so a full queue costs nothing but a goroutine.
func (e *engine[V, M]) sendBlock(accelQ chan<- blockItem, b int) bool {
	var cancel <-chan struct{}
	if e.ctx != nil {
		cancel = e.ctx.Done()
	}
	select {
	case accelQ <- blockItem{b: b, enq: e.tel.Stamp()}:
		return true
	case <-e.Done():
		return false
	case <-cancel:
		return false
	}
}

// sendTask hands a finished gather-apply to the scatter stage with the
// same failure-aware discipline as sendBlock. Cancellation does not
// abort it: the scatter stage outlives the gather stage at teardown, so
// the send completes and the block retires cleanly in the partial result.
func (e *engine[V, M]) sendTask(cpuQ chan<- task[V], t task[V]) bool {
	select {
	case cpuQ <- t:
		return true
	case <-e.Done():
		return false
	}
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

// dispatchWave issues one Barrier-mode wave and waits for the full drain
// of the gather-apply-scatter chain that separates consecutive waves.
// Convergence behaviour matches Async — the same blocks run with the same
// update rule — but PEs idle at every wave tail.
func (e *engine[V, M]) dispatchWave(accelQ chan<- blockItem) (wave int, ok bool) {
	// Snapshot the active set: one wave is the blocks claimable *now*.
	// Blocks activated while the wave runs wait for the next wave —
	// that is what distinguishes synchronized execution from the
	// async engine, where they would be dispatched immediately.
	for b := 0; b < e.Part.NumBlocks(); b++ {
		if e.st.Active(b) && !e.st.InFlight(b) && e.st.Claim(b) {
			if !e.dispatch(accelQ, b) {
				return wave, false
			}
			wave++
		}
	}
	if wave > 0 {
		e.awaitDrain()
		if e.cfg.Sim != nil {
			e.cfg.Sim.Barrier() // model the wave barrier's idle time
		}
	}
	return wave, true
}

// awaitDrain blocks until every issued task has completed its scatter,
// or a worker failure makes completion impossible.
func (e *engine[V, M]) awaitDrain() {
	spins := 0
	for e.tel.Total(telemetry.CtrTasksFinished) < e.tel.Total(telemetry.CtrTasksIssued) {
		if e.Err() != nil {
			return
		}
		idle(&spins)
	}
}

// idle backs off a polling loop: first yields, then sleeps briefly.
func idle(spins *int) {
	*spins++
	if *spins < 64 {
		runtime.Gosched()
	} else {
		time.Sleep(10 * time.Microsecond)
	}
}

// peWorker is one accelerator PE (steps 3-7): dequeue block, gather-apply,
// hand off to the CPU task queue. It observes its queue wait and gather
// latency into its own telemetry shard; both calls are no-ops in the
// bare-counter mode.
func (e *engine[V, M]) peWorker(i int, accelQ <-chan blockItem, cpuQ chan<- task[V]) {
	defer e.Recover(workerPanic)
	w := e.worker(1 + i)
	for it := range accelQ {
		e.stall("gather")
		now := e.tel.Stamp()
		w.Sh.Observe(telemetry.StageAccelWait, now-it.enq)
		w.Sh.Trace(telemetry.StageAccelWait, it.b, it.enq, now-it.enq)
		t, edges := e.gatherBlock(it.b, w)
		if sim := e.cfg.Sim; sim != nil {
			lo, hi := e.Part.VertexRange(it.b)
			sim.LeastLoadedPE().RunBlock(edges, edges*e.edgeBytes, int64(hi-lo)*e.valueBytes)
		}
		t.enq = e.tel.Stamp()
		w.Sh.Observe(telemetry.StageGather, t.enq-now)
		w.Sh.Trace(telemetry.StageGather, it.b, now, t.enq-now)
		if !e.sendTask(cpuQ, t) {
			return
		}
	}
}

// scatterWorker is one CPU thread (steps 8-11). With hybrid execution it
// also steals gather-apply tasks from the accelerator queue when no
// scatter work is pending (Sec. IV-B).
func (e *engine[V, M]) scatterWorker(j int, cpuQ <-chan task[V], hybridQ <-chan blockItem) {
	defer e.Recover(workerPanic)
	w := e.worker(1 + e.cfg.NumPEs + j)
	runHybrid := func(it blockItem, ok bool) bool {
		if !ok {
			return false
		}
		e.stall("gather")
		now := e.tel.Stamp()
		t, edges := e.gatherBlock(it.b, w)
		if sim := e.cfg.Sim; sim != nil {
			sim.LeastLoadedCPU().RunGather(edges, edges*e.edgeBytes)
		}
		w.Sh.Add(telemetry.CtrHybridBlocks, 1)
		t.enq = e.tel.Stamp()
		w.Sh.Observe(telemetry.StageGather, t.enq-now)
		w.Sh.Trace(telemetry.StageGather, it.b, now, t.enq-now)
		e.scatterBlock(t, w)
		return true
	}
	for {
		// Scatter work first: it retires in-flight blocks and produces
		// the activations every other stage feeds on.
		select {
		case t, ok := <-cpuQ:
			if !ok {
				return
			}
			e.scatterBlock(t, w)
			continue
		default:
		}
		hq := hybridQ
		if hq != nil && e.cfg.Sim != nil && !e.cfg.Sim.CPUHasSlack() {
			// Under the platform model, steal gather work only while the
			// host workers' modeled clocks trail the PEs' — the paper's
			// "runtime detects the CPU is under-utilized" condition
			// (Sec. IV-B). A host gather costs ~CPUGatherNsPerEdge per
			// edge, far more than the streaming PE path, so unconditional
			// stealing would slow the modeled system down.
			hq = nil
		}
		select {
		case t, ok := <-cpuQ:
			if !ok {
				return
			}
			e.scatterBlock(t, w)
		case it, ok := <-hq:
			if !runHybrid(it, ok) {
				hybridQ = nil // accelerator queue closed; drain cpuQ only
			}
		}
	}
}

// gatherBlock runs the kernel's GATHER-APPLY over block b and packages the
// per-vertex deltas, in a recycled buffer, as the task the scatter side
// consumes. It returns the in-edges streamed, for the platform model.
//
//abcd:hotpath
func (e *engine[V, M]) gatherBlock(b int, w *Worker[V, M]) (task[V], int64) {
	lo, hi := e.Part.VertexRange(b)
	t := task[V]{block: b}
	select {
	case t.buf = <-e.free:
	default:
		t.buf = e.newBlockBuf()
	}
	if e.live {
		t.gatherV = e.vertexUpdates()
	}
	edges, err := e.GatherApply(lo, hi, t.buf.deltas[:hi-lo], t.buf.dvals, w)
	if err != nil {
		e.Fail(err)
		return t, 0
	}
	w.Sh.Add(telemetry.CtrBlockUpdates, 1)
	return t, edges
}

// newBlockBuf allocates a block buffer; the free list makes that a
// once-per-pipeline-slot cost.
func (e *engine[V, M]) newBlockBuf() *blockBuf[V] {
	b := &blockBuf[V]{deltas: make([]float64, e.Part.BlockSize())} //abcdlint:ignore hotpath -- free-list miss: at most once per pipeline slot per run, recycled from then on
	if e.op != nil {
		b.dvals = make([]V, e.Part.BlockSize()) //abcdlint:ignore hotpath -- free-list miss: see deltas above
	}
	return b
}

// scatterBlock runs the kernel's SCATTER for one gathered block and
// retires it. Marking the block done last keeps the termination unit's
// quiescence test sound. The CPU-queue wait, the scatter latency, and
// the block's staleness are observed into the calling worker's shard.
//
//abcd:hotpath
func (e *engine[V, M]) scatterBlock(t task[V], w *Worker[V, M]) {
	e.stall("scatter")
	start := e.tel.Stamp()
	w.Sh.Observe(telemetry.StageCPUWait, start-t.enq)
	w.Sh.Trace(telemetry.StageCPUWait, t.block, t.enq, start-t.enq)
	lo, hi := e.Part.VertexRange(t.block)
	writes := e.Scatter(lo, hi, t.buf.deltas[:hi-lo], t.buf.dvals, w)
	if sim := e.cfg.Sim; sim != nil && writes > 0 {
		sim.LeastLoadedCPU().RunScatter(writes, writes*e.valueBytes)
	}
	select {
	case e.free <- t.buf:
	default:
	}
	e.st.Done(t.block)
	w.Sh.Add(telemetry.CtrTasksFinished, 1)
	if end := e.tel.Stamp(); e.live {
		w.Sh.Observe(telemetry.StageScatter, end-start)
		w.Sh.Trace(telemetry.StageScatter, t.block, start, end-start)
		if e.nv > 0 {
			w.Sh.Observe(telemetry.StageStaleness, (e.vertexUpdates()-t.gatherV)*1000/e.nv)
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
