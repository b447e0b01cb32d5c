// Package core implements GraphABCD's execution engines (Sec. IV): the
// asynchronous barrierless engine that is the paper's contribution, plus
// the Barrier and BSP baselines its Fig. 7 ablation compares against.
//
// The async engine follows the 11-step flow of Sec. IV-C on a pool of
// block workers: each claims its own next block from the active list
// (cyclic or Gauss-Southwell priority; one pick at a time, under a lock
// that guards only the scheduler's cursor and summaries) and runs its
// GATHER-APPLY (stream the in-edges sequentially, reading each source's
// scatter image, write the new vertex values) and then the same block's
// SCATTER (store each changed vertex's image once, accumulate
// Gauss-Southwell mass onto destination blocks, update the active list).
// On the paper's platform PEs gather and CPU threads scatter, fed through
// an accelerator task queue; on a CPU host that split is an attribute of
// the accelerator cost model (Sim), not of the goroutines, and there is
// no queue. The dataflow's shared state is atomic words — no locks, no
// barriers — and the termination unit's quiescence test covers blocks
// active, claimed, and in flight.
package core

import (
	"fmt"
	"io"
	"time"

	"graphabcd/internal/accel"
	"graphabcd/internal/checkpoint"
	"graphabcd/internal/edgestore"
	"graphabcd/internal/sched"
	"graphabcd/internal/telemetry"
)

// Mode selects the execution model.
type Mode int

const (
	// Async is the barrierless, lock-free engine (the paper's design).
	Async Mode = iota
	// Barrier adds a memory barrier after each wave of block processing
	// (the 'Barrier' baseline of Fig. 7): blocks are dispatched in rounds
	// and the next round starts only when the previous fully completes.
	Barrier
	// BSP is bulk-synchronous processing with block size |V| (Jacobi):
	// one global barrier per sweep, the GraphMat execution model.
	BSP
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Async:
		return "async"
	case Barrier:
		return "barrier"
	case BSP:
		return "bsp"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config parameterizes one engine run. The zero value is not runnable; use
// DefaultConfig as a starting point.
type Config struct {
	// BlockSize is the BCD block size n (vertices per block). Ignored in
	// BSP mode, which always uses |V|.
	BlockSize int
	// Mode selects async / barrier / BSP execution.
	Mode Mode
	// Policy selects the block scheduling rule (cyclic / priority /
	// random). BSP ignores it.
	Policy sched.Policy
	// NumPEs is the number of block workers, the accelerator PEs: each
	// claims a block and runs its GATHER-APPLY and then its SCATTER.
	// BSP's gather sweep runs on NumPEs workers.
	NumPEs int
	// NumScatter is the number of CPU threads: the workers of BSP's
	// scatter sweep, the extra block workers Hybrid adds, and the CPU
	// threads the simulator must model.
	NumScatter int
	// Hybrid adds NumScatter block workers: the CPU threads taking
	// GATHER-APPLY work (Sec. IV-B hybrid execution). Their blocks count
	// in Stats.HybridBlocks; under Sim their gathers are charged to a CPU
	// thread while the CPU side has slack.
	Hybrid bool
	// Epsilon is the activation threshold: a vertex whose update delta is
	// <= Epsilon neither scatters nor activates destination blocks.
	Epsilon float64
	// MaxEpochs bounds the work at MaxEpochs * |V| vertex updates; 0
	// means no bound (run to convergence). Non-convergent workloads such
	// as CF must set it. The first pick past the budget stops the run and
	// every worker finishes the block it holds, so a run does at most
	// workers * BlockSize vertex updates more (workers: NumPEs, plus
	// NumScatter with Hybrid).
	MaxEpochs float64
	// Seed feeds the random scheduler policy.
	Seed uint64
	// Sim, when non-nil, drives the accelerator cost model alongside the
	// real computation (simulated time, PE/bus utilization, traffic).
	Sim *accel.Simulator
	// Edges, when non-nil, overrides where the static edge structure
	// (weights, and source ids during initialization) is streamed from:
	// edgestore.OpenFile for out-of-core execution, edgestore.
	// OpenCompressed for the compact representation of Sec. VI-C. The
	// default streams zero-copy from the in-memory graph. The pull-push
	// layout makes every block's edges one contiguous range, so each
	// block task costs one sequential read regardless of backend.
	Edges edgestore.Source
	// StallHook, when non-nil, is invoked by every worker at each stage
	// boundary with the stage name ("gather", "scatter", and "schedule"
	// after each block, before the worker's next pick).
	// It exists for failure-injection tests (randomized delays must not
	// affect convergence) and must be safe for concurrent use.
	StallHook func(stage string)
	// OnEpoch, when non-nil, is invoked each time the cumulative vertex
	// updates cross another |V| (one epoch-equivalent), with the epoch
	// count completed so far. Useful for recording convergence curves
	// from a single run. Calls are serialized: a worker makes them under
	// the pick lock, before its pick, so keep it fast.
	OnEpoch func(epoch int)
	// Watchdog is the stall-watchdog sampling period: every period that
	// passes without a single vertex update increments
	// Stats.StallWindows. 0 means 500ms; negative disables the watchdog.
	Watchdog time.Duration
	// Checkpoint configures crash-safe periodic state snapshots and
	// resume (DESIGN.md §12). The zero value disables checkpointing
	// entirely — no goroutine starts and the hot path is untouched.
	Checkpoint Checkpoint
	// RecordSchedule, when non-nil, receives the block schedule — ids in
	// pick order — in the GABR format for
	// deterministic replay (ReplaySchedule). Async and Barrier modes
	// only; the caller owns closing the underlying file after the run
	// returns.
	RecordSchedule io.Writer
	// Telemetry, when non-nil, is the live instrumentation registry the
	// run emits into: sharded counters, per-stage latency/staleness
	// histograms, sampled trace events, and the convergence series
	// (internal/telemetry). The caller keeps the reference and may read
	// Registry.Snapshot concurrently while the run executes — that is how
	// cmd/graphabcd's -metrics-addr and -progress observe a live run.
	// When nil the engine uses a private bare-counter registry: counters
	// still feed Stats, but no clocks are read and no histograms exist,
	// so the disabled cost is ~0 (see BenchmarkEngineTelemetry).
	Telemetry *telemetry.Registry
}

// DefaultConfig returns an async cyclic configuration with the given block
// size and worker counts sized for the host.
func DefaultConfig(blockSize int) Config {
	return Config{
		BlockSize:  blockSize,
		Mode:       Async,
		Policy:     sched.Cyclic,
		NumPEs:     4,
		NumScatter: 2,
		Epsilon:    1e-9,
	}
}

// Validate reports the first configuration error with an actionable
// message. Every engine entry point (all three Modes route through
// RunContext) calls it before starting any goroutine, so a bad config
// fails fast instead of deadlocking or spinning.
func (c Config) Validate() error {
	def := DefaultConfig(0)
	switch {
	case c.BlockSize < 0:
		return fmt.Errorf("core: BlockSize %d is negative; use a positive block size (vertices per block), or 0 to default to one block per vertex range — DefaultConfig(256) is a reasonable start", c.BlockSize)
	case c.NumPEs <= 0:
		return fmt.Errorf("core: NumPEs %d leaves no block workers; set NumPEs >= 1 (DefaultConfig uses %d)", c.NumPEs, def.NumPEs)
	case c.NumScatter <= 0:
		return fmt.Errorf("core: NumScatter %d leaves BSP's scatter sweep without workers, so a sweep's updates would never publish; set NumScatter >= 1 (DefaultConfig uses %d)", c.NumScatter, def.NumScatter)
	case c.Epsilon < 0:
		return fmt.Errorf("core: Epsilon %g is negative; the activation threshold must be >= 0 (0 keeps every update active, %g is the default)", c.Epsilon, def.Epsilon)
	case c.MaxEpochs < 0:
		return fmt.Errorf("core: MaxEpochs %g is negative; use 0 to run to convergence or a positive epoch budget", c.MaxEpochs)
	case c.Mode != Async && c.Mode != Barrier && c.Mode != BSP:
		return fmt.Errorf("core: unknown mode %v; valid modes are Async, Barrier, and BSP", c.Mode)
	case c.Policy != sched.Cyclic && c.Policy != sched.Priority && c.Policy != sched.Random:
		return fmt.Errorf("core: unknown policy %v; valid policies are Cyclic, Priority, and Random", c.Policy)
	case c.RecordSchedule != nil && c.Mode == BSP:
		return fmt.Errorf("core: RecordSchedule requires Async or Barrier mode; BSP has no block schedule to record")
	case c.Checkpoint.enabled() && c.Mode == BSP:
		return fmt.Errorf("core: Checkpoint requires Async or Barrier mode; BSP restarts cost one sweep, so just rerun it")
	}
	return c.Checkpoint.validate()
}

// Checkpoint configures crash-safe snapshots of engine state: every
// Interval the engine captures a fuzzy snapshot (vertex values, scheduler
// priorities, progress counters) without pausing workers and commits it
// through the Store; Resume restarts a run from the last committed epoch.
// A checkpoint write failure fails the run — silently running without the
// durability the caller asked for is worse than stopping.
type Checkpoint struct {
	// Dir is the checkpoint directory; a checkpoint.DirStore is opened on
	// it when Store is nil.
	Dir string
	// Interval is the capture period. <= 0 writes no periodic checkpoints
	// (a Dir/Store with Resume still restores state, it just never saves).
	Interval time.Duration
	// Store overrides Dir with a custom checkpoint store.
	Store checkpoint.Store
	// RunID names the run in the store; distinct concurrent runs must use
	// distinct ids. Empty derives a stable id from the program, graph
	// digest, and config hash (so a plain rerun of the same job resumes
	// under -resume latest naturally).
	RunID string
	// Resume names the run id to restore before executing: values,
	// priorities, and progress counters seed from the last committed
	// epoch instead of prog.Init. The special value "latest" picks the
	// store's most recently committed run. The restored identity triple
	// (graph digest, program, config hash) must match or the run refuses
	// to start.
	Resume string
}

// enabled reports whether any checkpoint machinery should be set up.
func (c Checkpoint) enabled() bool {
	return c.Dir != "" || c.Store != nil
}

func (c Checkpoint) validate() error {
	switch {
	case !c.enabled() && (c.Interval > 0 || c.Resume != "" || c.RunID != ""):
		return fmt.Errorf("core: Checkpoint.Interval/RunID/Resume need a checkpoint store; set Checkpoint.Dir or Checkpoint.Store")
	case c.RunID != "" && !checkpoint.ValidRunID(c.RunID):
		return fmt.Errorf("core: Checkpoint.RunID %q invalid; use [A-Za-z0-9._-] with no leading dot", c.RunID)
	case c.Resume != "" && c.Resume != "latest" && !checkpoint.ValidRunID(c.Resume):
		return fmt.Errorf("core: Checkpoint.Resume %q invalid; use a run id or \"latest\"", c.Resume)
	}
	return nil
}

// ResumeFrom configures the run to restore state from runID's last
// committed checkpoint ("latest" resumes the store's newest run).
func (c *Config) ResumeFrom(runID string) {
	c.Checkpoint.Resume = runID
}

func (c Config) watchdogPeriod() time.Duration {
	if c.Watchdog == 0 {
		return 500 * time.Millisecond
	}
	return c.Watchdog
}
