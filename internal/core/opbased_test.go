package core

import (
	"math"
	"testing"

	"graphabcd/internal/bcd"
	"graphabcd/internal/graph"
	"graphabcd/internal/sched"
	"graphabcd/internal/word"
)

// stateWrapped hides the OpBased methods of a program, forcing the engine
// to run it with plain state-based stores — reproducing the overwrite
// hazard of Sec. IV-A3 for the ablation test below.
type stateWrapped struct{ p bcd.PageRankDelta }

func (w stateWrapped) Name() string                          { return w.p.Name() + "-as-state" }
func (w stateWrapped) Codec() word.Codec[float64]            { return w.p.Codec() }
func (w stateWrapped) Init(v uint32, g *graph.Graph) float64 { return w.p.Init(v, g) }
func (w stateWrapped) InitEdge(src uint32, g *graph.Graph) float64 {
	return w.p.InitEdge(src, g)
}
func (w stateWrapped) NewAccum() float64       { return w.p.NewAccum() }
func (w stateWrapped) ResetAccum(acc *float64) { w.p.ResetAccum(acc) }
func (w stateWrapped) Gather(acc *float64, dst float64, wts []float32, words []uint64) {
	w.p.Gather(acc, dst, wts, words)
}
func (w stateWrapped) Apply(v uint32, old float64, acc *float64, n int64, g *graph.Graph) float64 {
	return w.p.Apply(v, old, acc, n, g)
}
func (w stateWrapped) ScatterValue(v uint32, val float64, g *graph.Graph) float64 {
	return w.p.ScatterValue(v, val, g)
}
func (w stateWrapped) Delta(old, new float64) float64 { return w.p.Delta(old, new) }

func prdeltaErr(t *testing.T, vals []float64, want []float64) float64 {
	t.Helper()
	worst := 0.0
	for v := range want {
		if d := math.Abs(vals[v] - want[v]); d > worst {
			worst = d
		}
	}
	return worst
}

// PageRank-Delta with the engine's read-modify-write edge slots must reach
// the same fixpoint as state-based PageRank, in every mode.
func TestOpBasedPRDeltaMatchesReference(t *testing.T) {
	g := testGraph(t)
	want := bcd.RefPageRank(g, 0.85, 1e-13, 1000)
	for _, cfg := range []Config{
		{BlockSize: 32, Mode: Async, Policy: sched.Cyclic, NumPEs: 4, NumScatter: 2, Epsilon: 1e-12},
		{BlockSize: 32, Mode: Async, Policy: sched.Priority, NumPEs: 4, NumScatter: 2, Epsilon: 1e-12},
		{BlockSize: 64, Mode: Barrier, Policy: sched.Cyclic, NumPEs: 2, NumScatter: 2, Epsilon: 1e-12},
		{Mode: BSP, NumPEs: 4, NumScatter: 2, Epsilon: 1e-12},
	} {
		res, err := Run[float64, float64](g, bcd.PageRankDelta{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.Converged {
			t.Fatalf("%v/%v: did not converge", cfg.Mode, cfg.Policy)
		}
		if worst := prdeltaErr(t, res.Values, want); worst > 1e-6 {
			t.Fatalf("%v/%v: max error vs reference = %g", cfg.Mode, cfg.Policy, worst)
		}
	}
}

// The paper's Sec. IV-A3 claim, demonstrated: running an operation-based
// program with plain state-based stores (no read-modify-write) loses or
// replays deltas and lands far from the fixpoint, while the proper
// op-based run above is accurate. This is the reason GraphABCD chooses
// state-based updates for its lock-free design.
func TestOpBasedOverwriteHazardDemonstrated(t *testing.T) {
	g := testGraph(t)
	want := bcd.RefPageRank(g, 0.85, 1e-13, 1000)
	cfg := Config{BlockSize: 32, Mode: Async, Policy: sched.Priority,
		NumPEs: 4, NumScatter: 2, Epsilon: 1e-12, MaxEpochs: 200}

	// Both runs get the same 200-epoch budget. The proper run converges in
	// ~60 epochs on an idle host, but how many it needs is scheduling-
	// dependent (a descheduled worker acts on stale priorities), and on a
	// loaded host one draw can cross 200 and be cut off a few 1e-6 short of
	// the fixpoint. Its accuracy is therefore the best of a few fresh runs;
	// the broken run's error is a property of its fixpoint, not of the
	// schedule, so one draw decides it.
	const properTrials = 5
	properErr := math.Inf(1)
	for trial := 0; trial < properTrials && properErr > 1e-6; trial++ {
		proper, err := Run[float64, float64](g, bcd.PageRankDelta{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		properErr = math.Min(properErr, prdeltaErr(t, proper.Values, want))
	}
	broken, err := Run[float64, float64](g, stateWrapped{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	brokenErr := prdeltaErr(t, broken.Values, want)
	if properErr > 1e-6 {
		t.Fatalf("op-based run inaccurate: %g", properErr)
	}
	// The broken run re-reads stale deltas on every gather; its error must
	// be orders of magnitude worse than the proper run's.
	if brokenErr < 1e-4 || brokenErr < properErr*100 {
		t.Fatalf("state-semantics run should be badly wrong: broken=%g proper=%g",
			brokenErr, properErr)
	}
}

// The budget guard still applies to op-based runs.
func TestOpBasedRespectsBudget(t *testing.T) {
	g := testGraph(t)
	cfg := Config{BlockSize: 32, Mode: Async, Policy: sched.Cyclic,
		NumPEs: 2, NumScatter: 1, Epsilon: 0, MaxEpochs: 2}
	res, err := Run[float64, float64](g, bcd.PageRankDelta{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Converged {
		t.Fatal("must report non-convergence under a tight budget")
	}
}

// Operation-based programs require single-word codecs; a multi-word one
// must be rejected up front.
type multiWordOp struct{ bcd.CF }

func (multiWordOp) ZeroDelta() []float32                     { return nil }
func (multiWordOp) AccumulateDelta(p, d []float32) []float32 { return p }
func (multiWordOp) OutDelta(v uint32, old, new []float32, g *graph.Graph) []float32 {
	return nil
}

func TestOpBasedRejectsMultiWordCodec(t *testing.T) {
	g := testGraph(t)
	_, err := Run[[]float32, []float64](g, multiWordOp{bcd.CF{Rank: 4}}, DefaultConfig(32))
	if err == nil {
		t.Fatal("want error for multi-word operation-based program")
	}
}
