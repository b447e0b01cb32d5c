package core

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/edgestore"
	"graphabcd/internal/sched"
)

// TestRunExitPaths ends every block-worker shape — Async and Barrier
// under each policy, plus Hybrid — each way a run can end: convergence,
// the epoch budget, cancellation from the epoch hook, an edge-source
// failure, and a panic in a worker or in the epoch hook. Each run must
// return in time with the right Converged and error, and leave no
// goroutine behind. The budget row also pins the overshoot bound
// MaxEpochs documents: every worker finishes the block it claimed, and
// nothing more.
func TestRunExitPaths(t *testing.T) {
	g := testGraph(t)
	type shape struct {
		name string
		cfg  Config
	}
	var shapes []shape
	for _, mode := range []Mode{Async, Barrier} {
		for _, p := range []sched.Policy{sched.Cyclic, sched.Priority, sched.Random} {
			shapes = append(shapes, shape{mode.String() + "/" + p.String(),
				Config{BlockSize: 16, Mode: mode, Policy: p, NumPEs: 3, NumScatter: 2, Epsilon: 1e-10}})
		}
	}
	shapes = append(shapes, shape{"hybrid", Config{BlockSize: 16, Mode: Async, Policy: sched.Cyclic,
		NumPEs: 2, NumScatter: 2, Hybrid: true, Epsilon: 1e-10}})

	const budgetEpochs = 2
	endings := []struct {
		name      string
		tune      func(c *Config, cancel context.CancelFunc)
		converged bool
		err       string // substring of the wanted error; "" wants none
	}{
		{"converges", func(*Config, context.CancelFunc) {}, true, ""},
		{"budget", func(c *Config, _ context.CancelFunc) {
			c.Epsilon, c.MaxEpochs = 0, budgetEpochs // epsilon 0 keeps PageRank busy past the budget
		}, false, ""},
		{"cancelled", func(c *Config, cancel context.CancelFunc) {
			c.Epsilon = 0
			c.OnEpoch = func(int) { cancel() }
		}, false, ""},
		{"edge source fails", func(c *Config, _ context.CancelFunc) {
			// 20 reads survive initialization and a few blocks.
			fs := &failingSource{inner: edgestore.InMemory(g)}
			fs.left.Store(20)
			c.Edges = fs
		}, false, errInjected.Error()},
		{"worker panics", func(c *Config, _ context.CancelFunc) {
			var gathers atomic.Int64
			c.StallHook = func(stage string) {
				if stage == "gather" && gathers.Add(1) == 5 {
					panic("injected gather panic")
				}
			}
		}, false, workerPanic},
		{"epoch hook panics", func(c *Config, _ context.CancelFunc) {
			// The hook runs under the pick lock: the other workers must
			// still get past it.
			c.Epsilon = 0
			c.OnEpoch = func(int) { panic("injected epoch hook panic") }
		}, false, workerPanic},
	}
	for _, s := range shapes {
		for _, end := range endings {
			t.Run(s.name+"/"+end.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cfg := s.cfg
				end.tune(&cfg, cancel)
				type outcome struct {
					res *Result[float64]
					err error
				}
				done := make(chan outcome, 1)
				go func() {
					res, err := RunContext[float64, float64](ctx, g, bcd.PageRank{}, cfg)
					done <- outcome{res, err}
				}()
				var out outcome
				select {
				case out = <-done:
				case <-time.After(30 * time.Second):
					t.Fatal("run did not return within 30s")
				}
				switch {
				case end.err == "" && out.err != nil:
					t.Fatalf("err = %v, want none", out.err)
				case end.err != "" && (out.err == nil || !strings.Contains(out.err.Error(), end.err)):
					t.Fatalf("err = %v, want one containing %q", out.err, end.err)
				case end.err == "" && out.res.Stats.Converged != end.converged:
					t.Fatalf("Converged = %v, want %v", out.res.Stats.Converged, end.converged)
				}
				if end.name == "budget" {
					workers := cfg.NumPEs
					if cfg.Hybrid {
						workers += cfg.NumScatter
					}
					limit := int64(budgetEpochs*g.NumVertices() + workers*cfg.BlockSize)
					if u := out.res.Stats.VertexUpdates; u > limit {
						t.Fatalf("%d vertex updates, budget plus one block per worker is %d", u, limit)
					}
				}
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > base {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}
