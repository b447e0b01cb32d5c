package core

import (
	"context"
	"fmt"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/graph"
)

// ReplayResult is a Result plus the per-epoch residual trace the replay
// collected: Residuals[k] is the total pending gradient mass sampled when
// cumulative vertex updates crossed (k+1)*|V|.
type ReplayResult[V any] struct {
	*Result[V]
	Residuals []float64
}

// ReplaySchedule re-executes a recorded block schedule (Config.
// RecordSchedule, decoded with checkpoint.ReadSchedule) deterministically:
// RunContext's setup and worker loop, with one worker whose pick claims
// each recorded block id in order, so every floating-point operation
// happens in the same sequence every time and two replays of the same
// schedule produce bit-identical values and residual traces.
//
// The config must describe the same graph, program, and BlockSize as the
// recording run — block ids are meaningless otherwise. Worker counts,
// hybrid workers, the epoch budget, the simulator, and the watchdog are
// forcibly disabled; a Checkpoint.Resume still seeds initial state
// (replaying the post-resume segment of a crashed run), but no periodic
// checkpoints are written.
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
	e.runWorkers(1, func() (int, bool) {
		if len(schedule) == 0 {
			e.Stop()
			return 0, false
		}
		b := int(schedule[0])
		schedule = schedule[1:]
		e.st.ClaimRecorded(b)
		return b, true
	})
	if err := e.Err(); err != nil {
		return nil, err
	}
	res := e.result(e.st.Quiescent(), time.Since(start))
	return &ReplayResult[V]{Result: res, Residuals: residuals}, nil
}
