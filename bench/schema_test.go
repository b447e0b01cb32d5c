package main

import (
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadTestSpec(t *testing.T) (string, *benchSpec) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, spec
}

// BENCHMARK.json must satisfy the limits of the benchmark contract, and
// its workload list must be the harness's, name for name.
func TestBenchmarkJSONShape(t *testing.T) {
	_, spec := loadTestSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness runs %d", len(spec.Workloads), len(workloadNames))
	}
	seen := make(map[string]bool)
	use := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range spec.Workloads {
		use("workload", w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
		if newWorkload(&env{}, options{workload: w.Name}) == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, d := range spec.EndToEnd {
		use("end-to-end metric", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error(`end_to_end must hold setup_s with unit "s" and better "lower"`)
	}
	for _, d := range spec.PerLayer {
		use("per-layer metric", d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDecl(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
}

// resolve is the run-time half of the schema check: what a run measured
// must be exactly what BENCHMARK.json declares. (TestSmoke drives every
// workload through it, which is the "every emitted name is declared, and
// vice versa" check on the real names.)
func TestResolveRejectsUndeclaredAndMissing(t *testing.T) {
	decls := []metricDecl{{Name: "a_s", Unit: "s", Better: "lower"}, {Name: "b", Unit: "count", Better: "lower"}}
	got, err := metricSet{"a_s": 1.5, "b": 2}.resolve(decls)
	if err != nil || got["a_s"] != (metricValue{1.5, "s"}) || got["b"] != (metricValue{2, "count"}) {
		t.Fatalf("resolve of a matching set = %v, %v", got, err)
	}
	if _, err := (metricSet{"a_s": 1}).resolve(decls); err == nil || !strings.Contains(err.Error(), "b declared but not measured") {
		t.Errorf("missing metric not reported: %v", err)
	}
	if _, err := (metricSet{"a_s": 1, "b": 2, "c": 3}).resolve(decls); err == nil || !strings.Contains(err.Error(), "c measured but not declared") {
		t.Errorf("undeclared metric not reported: %v", err)
	}
	nan := 0.0
	if _, err := (metricSet{"a_s": nan / nan, "b": 2}).resolve(decls); err == nil || !strings.Contains(err.Error(), "not finite") {
		t.Errorf("NaN not reported: %v", err)
	}
}
