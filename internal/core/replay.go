package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/graph"
	"graphabcd/internal/sched"
)

// ReplayResult is a Result plus the per-epoch residual trace the replay
// collected: Residuals[k] is the total pending gradient mass sampled when
// cumulative vertex updates crossed (k+1)*|V|. Tail counts the claims
// the replay ran past the recorded ids to reach the fixed point; it is 0
// when the replay matches its recording.
type ReplayResult[V any] struct {
	*Result[V]
	Residuals []float64
	Tail      int64
}

// ReplaySchedule re-executes a recorded block schedule (Config.
// RecordSchedule, decoded with checkpoint.ReadSchedule) deterministically:
// RunContext's setup and worker loop, with one worker whose pick claims
// each recorded block id in order, so every floating-point operation
// happens in the same sequence every time and two replays of the same
// schedule produce bit-identical values and residual traces.
//
// The recorded ids fix the update ordering, not the recording's
// concurrent interleaving: on one thread, activations land between
// claims differently and can leave residual mass at the end of the
// schedule. So a replay of a state-based program then runs cyclic sweeps
// over the active blocks, deterministic as well, until quiescence — or
// until cfg.MaxEpochs, which bounds this tail alone — and ends on the
// fixed point the recording converged to; ReplayResult.Tail says how far
// it went. An operation-based replay ends with its recorded ids, as
// replays always did: its result is the state those ids leave, pending
// delta mass included, which is what the cross-commit replay golden
// (testdata/parent_2bd56f4.trace) pins.
//
// The config must describe the same graph, program, and BlockSize as the
// recording run — block ids are meaningless otherwise. Worker counts,
// hybrid workers, the simulator, and the watchdog are forcibly
// disabled, and the epoch budget never cuts the recorded ids; a
// Checkpoint.Resume still seeds initial state (replaying the post-resume
// segment of a crashed run), but no periodic checkpoints are written.
//
// Replay exists for debugging divergence: when an async run misbehaves,
// its recorded schedule pins down *which* update ordering produced the
// behaviour, and the replay reproduces it exactly, single-stepped.
func ReplaySchedule[V, M any](ctx context.Context, g *graph.Graph, prog bcd.Program[V, M], cfg Config, schedule []uint32) (*ReplayResult[V], error) {
	// Determinism overrides: exactly one worker-shard is used, nothing
	// races, nothing records, nothing samples wall clocks into decisions.
	cfg.Mode = Async
	cfg.NumPEs, cfg.NumScatter = 1, 1
	cfg.Hybrid = false
	tailBudget := int64(math.MaxInt64)
	if cfg.MaxEpochs > 0 {
		tailBudget = int64(cfg.MaxEpochs * float64(g.NumVertices()))
	}
	cfg.MaxEpochs = 0
	cfg.Sim = nil
	cfg.RecordSchedule = nil
	cfg.StallHook = nil
	cfg.OnEpoch = nil
	cfg.Watchdog = -1
	cfg.Checkpoint.Interval = 0
	e, _, err := prepare(ctx, g, prog, cfg)
	if err != nil {
		return nil, err
	}
	for i, id := range schedule {
		if int(id) >= e.Part.NumBlocks() {
			return nil, fmt.Errorf("core: replay step %d: block %d out of range (schedule was recorded with a different BlockSize or graph?)", i, id)
		}
	}
	// The residual trace is the epoch hook's: it fires before each pick,
	// so it samples the state the previous block left.
	var residuals []float64
	e.cfg.OnEpoch = func(int) { residuals = append(residuals, e.st.PendingMass()) }
	start := time.Now()
	tail := sched.NewCyclic(e.st)
	var tailClaims int64
	e.runWorkers(1, func() (int, bool) {
		if len(schedule) > 0 {
			b := int(schedule[0])
			schedule = schedule[1:]
			e.st.ClaimRecorded(b)
			return b, true
		}
		// The one worker has finished its block: nothing is in flight.
		if e.op != nil || e.st.Quiescent() || e.vertexUpdates() >= tailBudget {
			e.Stop()
			return 0, false
		}
		b, ok := tail.Next()
		if ok {
			tailClaims++
		}
		return b, ok
	})
	if err := e.Err(); err != nil {
		return nil, err
	}
	res := e.result(e.st.Quiescent(), time.Since(start))
	return &ReplayResult[V]{Result: res, Residuals: residuals, Tail: tailClaims}, nil
}
