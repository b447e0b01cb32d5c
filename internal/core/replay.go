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
// one goroutine runs the fused claim → gather-apply → scatter chain for
// each recorded block id in order, so every floating-point operation
// happens in the same sequence every time and two replays of the same
// schedule produce bit-identical values and residual traces.
//
// The config must describe the same graph, program, and BlockSize as the
// recording run — block ids are meaningless otherwise. Worker counts,
// hybrid stealing, the simulator, and the watchdog are forcibly disabled;
// a Checkpoint.Resume still seeds initial state (replaying the post-resume
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
	cfg.Sim = nil
	cfg.RecordSchedule = nil
	cfg.StallHook = nil
	cfg.OnEpoch = nil
	cfg.Watchdog = -1
	cfg.Checkpoint.Interval = 0
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e, err := newEngine(g, prog, cfg)
	if err != nil {
		return nil, err
	}
	e.ctx = ctx
	ck, err := newCheckpointer(e, cfg.Checkpoint)
	if err != nil {
		return nil, err
	}
	if ck != nil && cfg.Checkpoint.Resume != "" {
		if err := ck.resume(cfg.Checkpoint.Resume); err != nil {
			return nil, err
		}
	}
	if !e.resumed {
		e.st.ActivateAll(1)
	}
	nb := e.Part.NumBlocks()
	w := e.worker(1)
	var residuals []float64
	n := int64(g.NumVertices())
	nextEpoch := int64(1)
	start := time.Now()
	for i, id := range schedule {
		if int(id) >= nb {
			return nil, fmt.Errorf("core: replay step %d: block %d out of range (schedule was recorded with a different BlockSize or graph?)", i, id)
		}
		if ctx != nil && ctx.Err() != nil {
			break
		}
		e.st.ClaimRecorded(int(id))
		t, _ := e.gatherBlock(int(id), w)
		e.scatterBlock(t, w)
		e.st.Done(int(id))
		if e.Err() != nil {
			break
		}
		for n > 0 && e.vertexUpdates() >= nextEpoch*n {
			residuals = append(residuals, e.st.PendingMass())
			nextEpoch++
		}
	}
	if err := e.Err(); err != nil {
		return nil, err
	}
	res := e.result(e.st.Quiescent(), time.Since(start))
	return &ReplayResult[V]{Result: res, Residuals: residuals}, nil
}
