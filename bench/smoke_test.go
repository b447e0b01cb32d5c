package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, on tiny inputs: the
// harness builds the three programs, generates inputs, drives every public
// entry point it times, verifies every job against the oracles, and checks
// that each run produced exactly the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs; skipped with -short")
	}
	root, spec := loadTestSpec(t)
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	if err := runSmoke(ctx, root, spec, 1); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		if _, err := os.Stat(filepath.Join(root, "bench", "out", "trace-"+name+".json")); err != nil {
			t.Errorf("traced run of %s left no trace file: %v", name, err)
		}
	}
}

// Two result files of the same runs compare as ok; making B's job time
// worse by more than the bound turns that row to worse; a side whose runs
// disagree by more than the bound is unresolved, not unchanged.
func TestCompareVerdicts(t *testing.T) {
	_, spec := loadTestSpec(t)
	mk := func(jobs ...float64) *resultFile {
		f := &resultFile{}
		for _, j := range jobs {
			f.Runs = append(f.Runs, &runResult{Workload: "pr_rmat", Correct: true, Metrics: map[string]metricValue{
				"job_s_p50": {Value: j, Unit: "s"},
			}})
		}
		return f
	}
	verdictOf := func(a, b *resultFile) string {
		for _, r := range compareRows(spec, a, b) {
			if r.workload == "pr_rmat" && r.metric == "job_s_p50" {
				return r.verdict
			}
		}
		return "missing"
	}
	steady := mk(1.00, 1.01, 0.99, 1.00, 1.02)
	if v := verdictOf(steady, mk(1.01, 1.00, 1.02, 0.99, 1.00)); v != verdictOK {
		t.Errorf("A/A verdict = %s, want ok", v)
	}
	if v := verdictOf(steady, mk(1.50, 1.51, 1.49, 1.50, 1.52)); v != verdictWorse {
		t.Errorf("50%% slower verdict = %s, want worse", v)
	}
	if v := verdictOf(steady, mk(0.50, 0.51, 0.49, 0.50, 0.52)); v != verdictOK {
		t.Errorf("faster verdict = %s, want ok", v)
	}
	if v := verdictOf(steady, mk(0.6, 1.0, 1.4, 0.7, 1.3)); v != verdictUnresolved {
		t.Errorf("noisy side verdict = %s, want unresolved", v)
	}

	// Host speed is judged per file: the same mean calibration compares,
	// a host more than 10% slower is refused, and so is a failed run.
	calib := func(f *resultFile, start, end float64) *resultFile {
		for _, r := range f.Runs {
			r.Host.CalibStart, r.Host.CalibEnd = start, end
		}
		return f
	}
	if err := refuse("a.json", calib(mk(1, 1, 1), 2.9e6, 3.6e6), "b.json", calib(mk(1, 1, 1), 3.6e6, 2.9e6)); err != nil {
		t.Errorf("files from hosts of the same speed were refused: %v", err)
	}
	if err := refuse("a.json", calib(mk(1, 1, 1), 2.9e6, 2.9e6), "b.json", calib(mk(1, 1, 1), 3.6e6, 3.6e6)); err == nil {
		t.Error("a host 24% slower must be refused")
	}
	failed := calib(mk(1, 1, 1), 3e6, 3e6)
	failed.Runs[0].Correct = false
	if err := refuse("a.json", calib(mk(1, 1, 1), 3e6, 3e6), "b.json", failed); err == nil {
		t.Error("a file with a failed run must be refused")
	}
}
