package core

import (
	"time"

	"graphabcd/internal/telemetry"
)

// Stats summarizes one engine run. BlockUpdates counts processed blocks,
// VertexUpdates the vertex-program executions (each vertex of a processed
// block counts once), EdgesTraversed the in-edges streamed through GATHER.
//
// Epochs is VertexUpdates / |V| — the "# of iterations" of the paper's
// Equation (1) in epoch-equivalents, which makes a BSP sweep (1 epoch) and
// small-block executions directly comparable (Fig. 4's normalization).
//
// Stats is the *final* snapshot of the run's telemetry registry
// (internal/telemetry): the engine tallies into per-worker padded shards
// — the old single counter struct put eight adjacent atomics on shared
// cache lines, a measured false-sharing hotspot (DESIGN.md §9) — and
// StatsFromTelemetry merges them once at the end. For live visibility
// into the same registry, pass Config.Telemetry and read
// Registry.Snapshot while the run executes.
type Stats struct {
	BlockUpdates   int64
	VertexUpdates  int64
	EdgesTraversed int64
	ScatterWrites  int64 // out-edge cache slots written by SCATTER
	HybridBlocks   int64 // blocks processed by CPU workers (hybrid mode)
	Epochs         float64
	Converged      bool // false when MaxEpochs or cancellation stopped the run
	// StallWindows counts watchdog periods (Config.Watchdog) in which no
	// progress was observed — a liveness signal for hung or partitioned
	// runs that surfaces even when the run eventually completes.
	StallWindows int64
	// CkptEpochs counts checkpoint epochs captured during the run and
	// CkptBytes the state bytes they wrote — the run's durability cost.
	CkptEpochs int64
	CkptBytes  int64
	WallTime   time.Duration
	SimTimeNs  float64 // accelerator-model makespan (0 without Sim)
}

// MTEPS returns millions of traversed edges per second of wall time, the
// throughput metric of Table II. Non-positive wall time (an unfinished or
// corrupt measurement) yields 0, never Inf or a negative rate.
func (s Stats) MTEPS() float64 {
	if s.WallTime <= 0 {
		return 0
	}
	return float64(s.EdgesTraversed) / s.WallTime.Seconds() / 1e6
}

// StatsFromTelemetry builds the scalar run summary from the registry's
// cross-shard counter totals — the one place a run's counters become a
// Stats, for the single-node engine and the cluster runtimes alike.
func StatsFromTelemetry(tel *telemetry.Registry, numVertices int, converged bool, wall time.Duration) Stats {
	t := tel.CounterTotals()
	st := Stats{
		BlockUpdates:   t[telemetry.CtrBlockUpdates],
		VertexUpdates:  t[telemetry.CtrVertexUpdates],
		EdgesTraversed: t[telemetry.CtrEdgesTraversed],
		ScatterWrites:  t[telemetry.CtrScatterWrites],
		HybridBlocks:   t[telemetry.CtrHybridBlocks],
		Converged:      converged,
		StallWindows:   t[telemetry.CtrStallWindows],
		CkptEpochs:     t[telemetry.CtrCkptEpochs],
		CkptBytes:      t[telemetry.CtrCkptBytes],
		WallTime:       wall,
	}
	if numVertices > 0 {
		st.Epochs = float64(st.VertexUpdates) / float64(numVertices)
	}
	return st
}

// Result bundles the final vertex values with the run statistics.
type Result[V any] struct {
	Values []V
	Stats  Stats
}
