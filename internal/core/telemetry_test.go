package core

import (
	"bytes"
	"cmp"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/sched"
	"graphabcd/internal/telemetry"
)

// TestEngineLiveTelemetry runs PageRank with a caller-owned registry and
// checks the full observability contract: the final Stats equal the
// registry's counter totals, the stage histograms saw every block, the
// convergence series recorded epoch samples, and the engine's gauges are
// present in a Snapshot.
func TestEngineLiveTelemetry(t *testing.T) {
	g := testGraph(t)
	reg := telemetry.New(telemetry.Options{Histograms: true})
	cfg := Config{BlockSize: 64, Mode: Async, Policy: sched.Priority,
		NumPEs: 3, NumScatter: 2, Epsilon: 1e-10, Telemetry: reg}
	res, err := Run[float64, float64](g, bcd.PageRank{}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	totals := reg.CounterTotals()
	if totals[telemetry.CtrBlockUpdates] != res.Stats.BlockUpdates ||
		totals[telemetry.CtrVertexUpdates] != res.Stats.VertexUpdates ||
		totals[telemetry.CtrEdgesTraversed] != res.Stats.EdgesTraversed {
		t.Errorf("registry totals diverge from Stats: reg=%v stats=%+v", totals, res.Stats)
	}
	if res.Stats.BlockUpdates == 0 || res.Stats.EdgesTraversed == 0 {
		t.Fatalf("run did no work: %+v", res.Stats)
	}

	// Every processed block passes through gather and scatter exactly once,
	// so both histograms must count BlockUpdates observations.
	for _, st := range []telemetry.Stage{telemetry.StageGather, telemetry.StageScatter, telemetry.StageStaleness} {
		h := reg.StageHistogram(st)
		if h.Count != res.Stats.BlockUpdates {
			t.Errorf("stage %s count = %d, want %d", st.Name(), h.Count, res.Stats.BlockUpdates)
		}
	}
	// Pick: one claim per processed block — the same block count again.
	if h := reg.StageHistogram(telemetry.StagePick); h.Count != res.Stats.BlockUpdates {
		t.Errorf("pick count = %d, want %d", h.Count, res.Stats.BlockUpdates)
	}

	conv := reg.Convergence()
	if len(conv) == 0 {
		t.Error("live registry recorded no convergence samples")
	} else {
		last := conv[len(conv)-1]
		if last.Epoch < 1 || last.Residual < 0 {
			t.Errorf("suspicious final convergence sample: %+v", last)
		}
	}

	s := reg.Snapshot()
	for _, gauge := range []string{"active_blocks", "residual"} {
		if _, ok := s.Gauges[gauge]; !ok {
			t.Errorf("gauge %q missing from snapshot (have %v)", gauge, s.Gauges)
		}
	}
	if s.Epochs <= 0 {
		t.Errorf("snapshot epochs = %g, want > 0", s.Epochs)
	}
}

// TestEngineTraceEndToEnd drives the sampled tracer through a real run and
// verifies the emitted file is loadable Chrome trace-event JSON containing
// complete events for every instrumented stage, that each block is
// gathered and scattered by the same worker, and that with two PEs the
// scatters are spread over more than one worker.
func TestEngineTraceEndToEnd(t *testing.T) {
	g := testGraph(t)
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf, 1) // trace every block
	reg := telemetry.New(telemetry.Options{Histograms: true, Tracer: tr})
	cfg := Config{BlockSize: 64, Mode: Async, Policy: sched.Cyclic,
		NumPEs: 2, NumScatter: 1, Epsilon: 1e-8, Telemetry: reg,
		// A worker that sleeps inside each block hands the CPU to the
		// other: a run this short can otherwise finish on one worker
		// before the runtime schedules the second.
		StallHook: func(stage string) {
			if stage == "scatter" {
				time.Sleep(20 * time.Microsecond)
			}
		}}
	if _, err := Run[float64, float64](g, bcd.PageRank{}, cfg); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	seen := map[string]int{}
	// A block id recurs across the run, but a block is in flight on one
	// worker at a time, so in start-time order a block's k-th gather
	// pairs with its k-th scatter.
	type span struct{ ts, tid float64 }
	gathers, scatters := map[int][]span{}, map[int][]span{}
	scatterTids := map[float64]bool{}
	for _, e := range events {
		if e["ph"] != "X" {
			continue
		}
		seen[e["name"].(string)]++
		args, _ := e["args"].(map[string]any)
		block, sp := int(args["block"].(float64)), span{e["ts"].(float64), e["tid"].(float64)}
		switch e["name"] {
		case "gather":
			gathers[block] = append(gathers[block], sp)
		case "scatter":
			scatters[block] = append(scatters[block], sp)
			scatterTids[sp.tid] = true
		}
	}
	for _, stage := range []string{"gather", "scatter", "pick"} {
		if seen[stage] == 0 && tr.Dropped() == 0 {
			t.Errorf("no %q events in trace (saw %v)", stage, seen)
		}
	}
	if tr.Dropped() != 0 {
		return // a dropped event would misalign the pairing below
	}
	byStart := func(a, b span) int { return cmp.Compare(a.ts, b.ts) }
	for b, gt := range gathers {
		st := scatters[b]
		if len(st) != len(gt) {
			t.Fatalf("block %d: %d gather events, %d scatter events", b, len(gt), len(st))
		}
		slices.SortFunc(gt, byStart)
		slices.SortFunc(st, byStart)
		for k := range gt {
			if gt[k].tid != st[k].tid {
				t.Fatalf("block %d, pass %d: gathered on tid %g, scattered on tid %g", b, k, gt[k].tid, st[k].tid)
			}
		}
	}
	if len(scatterTids) < 2 {
		t.Errorf("scatter events came from %d worker(s) %v with NumPEs %d; every worker should scatter", len(scatterTids), scatterTids, cfg.NumPEs)
	}
}

// TestEngineBSPTelemetry checks the Barrier path reports through the same
// registry: sweeps count as block updates and vertex work is attributed.
func TestEngineBSPTelemetry(t *testing.T) {
	g := testGraph(t)
	reg := telemetry.New(telemetry.Options{Histograms: true})
	cfg := Config{BlockSize: 64, Mode: Barrier, Policy: sched.Cyclic,
		NumPEs: 2, NumScatter: 1, Epsilon: 1e-9, Telemetry: reg}
	res, err := Run[float64, float64](g, bcd.PageRank{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	totals := reg.CounterTotals()
	if totals[telemetry.CtrVertexUpdates] != res.Stats.VertexUpdates || res.Stats.VertexUpdates == 0 {
		t.Errorf("BSP vertex updates: reg=%d stats=%d", totals[telemetry.CtrVertexUpdates], res.Stats.VertexUpdates)
	}
}
