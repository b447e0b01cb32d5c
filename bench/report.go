package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// setupRepeats is how many times the full set-up runs in an untraced run;
// setup_s is the median, which takes the first (cold page cache) rep out.
const setupRepeats = 3

// tracedShare is the part of the job count a traced run uses.
const tracedShare = 1.0 / 2

// runResult is one run of one workload: what the result line reports plus
// the context needed to judge it later.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Smoke     bool                   `json:"smoke,omitempty"`
	Host      hostFacts              `json:"host"`
	BuildS    float64                `json:"build_s"`
	WallS     float64                `json:"wall_s"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Info      map[string]any         `json:"info,omitempty"`
}

func newWorkload(e *env, opt options) workload {
	switch opt.workload {
	case "pr_rmat":
		return &engineWorkload{e: e, kind: kindPR, seed: opt.seed, smoke: opt.smoke}
	case "sssp_grid":
		return &engineWorkload{e: e, kind: kindSSSP, seed: opt.seed, smoke: opt.smoke}
	case "cold_ckpt":
		return &coldWorkload{e: e, seed: opt.seed, smoke: opt.smoke}
	case "serve_mix":
		return &serveWorkload{e: e, seed: opt.seed, smoke: opt.smoke}
	case "dist_tcp":
		return &distWorkload{e: e, seed: opt.seed, smoke: opt.smoke}
	}
	return nil
}

// runOne executes one workload run end to end: build, repeated set-up,
// the measured window, (traced runs) the layer probes, and the schema
// check of what was measured against BENCHMARK.json.
func runOne(ctx context.Context, root string, spec *benchSpec, opt options) (*runResult, error) {
	began := time.Now()
	tag := opt.workload
	if opt.trace {
		tag += "-trace"
	}
	e, err := newEnv(root, tag)
	if err != nil {
		return nil, err
	}
	defer e.cleanup()
	if err := e.buildPrograms(); err != nil {
		return nil, err
	}
	host := beginHostFacts()

	wl := newWorkload(e, opt)
	reps := setupRepeats
	if opt.trace || opt.smoke {
		reps = 1
	}
	var setups []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if err := wl.setup(ctx); err != nil {
			wl.teardown()
			return nil, fmt.Errorf("%s set-up: %w", opt.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r < reps-1 {
			wl.teardown()
		}
	}

	seconds := opt.seconds
	var tr *tracer
	if opt.trace {
		seconds *= tracedShare
		tr = newTracer()
	}
	m, err := wl.measure(ctx, seconds, tr)
	wl.teardown()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	if m.attempted < 1 || len(m.jobs) == 0 {
		return nil, fmt.Errorf("%s: no job completed (%v)", opt.workload, m.failures)
	}

	metrics := metricSet{}
	info := m.info
	if info == nil {
		info = map[string]any{}
	}
	info["setup_s_samples"] = setups
	info["job_s_samples"] = len(m.jobs)
	info["job_s_all"] = m.jobs
	if p, ok := tailPercentile(len(m.jobs)); ok {
		info["job_s_tail_percentile"] = p
		info["job_s_tail"] = percentile(m.jobs, p)
	}
	if !opt.trace {
		metrics["setup_s"] = median(setups)
		metrics["job_s_p50"] = median(m.jobs)
		metrics["capacity_jobs_per_s"] = float64(m.closedJobs) / m.closedWall
		metrics["cpu_s_per_job"] = m.cpu / float64(max(1, m.cpuJobs))
		metrics["peak_rss_mb"] = m.peakRSSMB
	} else {
		var probes metricSet
		if opt.probeCache != nil && *opt.probeCache != nil {
			probes = *opt.probeCache
		} else {
			if probes, err = runProbes(ctx, e, opt); err != nil {
				return nil, fmt.Errorf("layer probes: %w", err)
			}
			if opt.probeCache != nil {
				*opt.probeCache = probes
			}
		}
		for k, v := range probes {
			metrics[k] = v
		}
		for k, v := range m.layer { // the workload's own layer numbers win
			metrics[k] = v
		}
		spans := tr.closed()
		selfTime := selfTimeTable(spans)
		// A job's root span is in the "job" layer: its self time is what
		// no layer span accounts for.
		metrics["runtime.unattributed_s_p50"] = selfTime["job"]
		metrics["telemetry.trace_overhead_ratio"] = orZero(median(m.traced) / median(m.untraced))
		loc, err := countNonTestLines(root)
		if err != nil {
			return nil, err
		}
		metrics["repo.loc_nontest"] = float64(loc)
		tracePath := filepath.Join(e.out, "trace-"+opt.workload+".json")
		if err := writeChromeTrace(tracePath, spans); err != nil {
			return nil, err
		}
		info["trace_file"] = filepath.Join("bench", "out", filepath.Base(tracePath))
		info["self_time_s_per_job"] = selfTime
	}
	host.finish()

	resolved, schemaErr := metrics.resolve(spec.decls(opt.trace))
	res := &runResult{
		Workload: opt.workload, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace, Smoke: opt.smoke,
		Host: host, BuildS: e.build, WallS: time.Since(began).Seconds(),
		Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Failures: m.failures,
		Metrics: resolved, Info: info,
	}
	if schemaErr != nil {
		return nil, schemaErr
	}
	return res, nil
}

// selfTimeTable is the median self time per layer across traced jobs.
func selfTimeTable(spans []span) map[string]float64 {
	perLayer := make(map[string][]float64)
	for _, layers := range layerSelfSeconds(spans) {
		for l, v := range layers {
			perLayer[l] = append(perLayer[l], v)
		}
	}
	out := make(map[string]float64, len(perLayer))
	for l, xs := range perLayer {
		out[l] = median(xs)
	}
	return out
}

func (r *runResult) fileName() string {
	kind := "e2e"
	if r.Trace {
		kind = "trace"
	}
	return fmt.Sprintf("run-%s-%s.json", r.Workload, kind)
}

// writeFile leaves the run under bench/out, where the all-workloads mode
// collects it.
func (r *runResult) writeFile(root string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "bench", "out", r.fileName()), append(data, '\n'), 0o644)
}

// printResultLine writes the object the contract wants as the last line
// of standard output.
func (r *runResult) printResultLine(w io.Writer) error {
	line, err := json.Marshal(map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   r.Metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printRun lists every metric of the run by name with unit and direction.
func printRun(spec *benchSpec, r *runResult) {
	kind := "end-to-end (tracing off)"
	if r.Trace {
		kind = "per-layer (traced run)"
	}
	fmt.Printf("== %s  seed %d  %s  build_s %.2f  wall_s %.1f\n", r.Workload, r.Seed, kind, r.BuildS, r.WallS)
	for _, d := range spec.decls(r.Trace) {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", 100*d.Bound)
		}
		fmt.Printf("%-36s %16s %-9s %s is better%s\n", d.Name, strconv.FormatFloat(v.Value, 'g', 6, 64), v.Unit, d.Better, bound)
	}
	fail := 0.0
	if r.Attempted > 0 {
		fail = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("%-36s %16s %-9s lower is better  bound 0 (absolute)\n", "fail_ratio", strconv.FormatFloat(fail, 'g', 6, 64), "ratio")
	fmt.Printf("samples: %v jobs", r.Info["job_s_samples"])
	if p, ok := r.Info["job_s_tail_percentile"]; ok {
		fmt.Printf(", job_s p%v = %v s", p, r.Info["job_s_tail"])
	}
	fmt.Printf("; calib_ns %.0f -> %.0f", r.Host.CalibStart, r.Host.CalibEnd)
	if r.Host.Unstable {
		fmt.Print("  UNSTABLE (calibration drifted >10%)")
	}
	fmt.Println()
	for _, f := range r.Failures {
		fmt.Println("failure:", f)
	}
}

// resultFile is bench/out/result.json: every run of an all-workloads
// invocation plus a per-metric summary across the runs.
type resultFile struct {
	Generated string                              `json:"generated"`
	Runs      []*runResult                        `json:"runs"`
	Summary   map[string]map[string]metricSummary `json:"summary"` // workload -> metric
}

// metricSummary condenses one metric of one workload across runs.
type metricSummary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	// Spread is the interquartile distance as a share of the median.
	Spread float64 `json:"spread"`
	// StableCount marks a count that repeated within 3% across at least
	// three runs; later issues may rest a claim on such a count.
	StableCount bool `json:"stable_count,omitempty"`
}

const stableCountSpread = 0.03

func summarize(runs []*runResult) map[string]map[string]metricSummary {
	samples := make(map[string]map[string][]float64)
	units := make(map[string]string)
	for _, r := range runs {
		if samples[r.Workload] == nil {
			samples[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			samples[r.Workload][name] = append(samples[r.Workload][name], v.Value)
			units[name] = v.Unit
		}
	}
	out := make(map[string]map[string]metricSummary, len(samples))
	for wl, metrics := range samples {
		out[wl] = make(map[string]metricSummary, len(metrics))
		for name, xs := range metrics {
			s := metricSummary{Unit: units[name], N: len(xs), Median: median(xs), Spread: quartileSpread(xs)}
			isCount := units[name] == "count" || units[name] == "epochs" || units[name] == "bytes"
			s.StableCount = isCount && len(xs) >= 3 && s.Spread <= stableCountSpread
			out[wl][name] = s
		}
	}
	return out
}

// runAll runs every workload opt.runs times, each run in a fresh child
// process of this binary so that heap, GC state and peak RSS of one
// workload never leak into the next.
func runAll(root string, spec *benchSpec, opt options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var runs []*runResult
	failed := false
	for run := 0; run < opt.runs; run++ {
		for _, name := range workloadNames {
			r := &runResult{Workload: name, Trace: opt.trace}
			resultPath := filepath.Join(root, "bench", "out", r.fileName())
			if err := os.Remove(resultPath); err != nil && !os.IsNotExist(err) {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			cmd := exec.Command(self,
				"--workload", name,
				"--seed", strconv.FormatUint(opt.seed, 10),
				"--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
				"--trace", map[bool]string{false: "0", true: "1"}[opt.trace])
			cmd.Dir = root
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				failed = true
			}
			// A run with failed jobs still leaves its result behind.
			data, err := os.ReadFile(resultPath)
			if err == nil {
				err = json.Unmarshal(data, r)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: no result: %v\n", name, err)
				failed = true
				continue
			}
			runs = append(runs, r)
		}
	}
	out := resultFile{Generated: time.Now().UTC().Format(time.RFC3339), Runs: runs, Summary: summarize(runs)}
	data, err := json.MarshalIndent(out, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(root, "bench", "out", "result.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printSummary(out.Summary)
	if failed {
		return 1
	}
	return 0
}

// runSmoke runs every workload, untraced and traced, on tiny inputs in
// this process. It measures nothing worth keeping; it proves that the
// harness still drives every entry point it times and that every metric
// BENCHMARK.json declares is produced (and no other).
func runSmoke(ctx context.Context, root string, spec *benchSpec, seed uint64) error {
	var probes metricSet
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			opt := options{workload: name, seed: seed, seconds: 1, trace: trace, smoke: true, probeCache: &probes}
			res, err := runOne(ctx, root, spec, opt)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s (trace=%v): %d of %d jobs failed: %v", name, trace, res.Failed, res.Attempted, res.Failures)
			}
			fmt.Printf("smoke ok  %-10s trace=%-5v %d jobs, %d metrics, %.1fs\n", name, trace, res.Attempted, len(res.Metrics), res.WallS)
		}
	}
	return nil
}

func printSummary(summary map[string]map[string]metricSummary) {
	fmt.Println("== summary (median over runs; spread = IQR/median)")
	for _, wl := range workloadNames {
		metrics := summary[wl]
		names := make([]string, 0, len(metrics))
		for n := range metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := metrics[n]
			stable := ""
			if s.StableCount {
				stable = "  stable_count"
			}
			fmt.Printf("%-10s %-36s %16s %-9s n=%d spread %.1f%%%s\n", wl, n,
				strconv.FormatFloat(s.Median, 'g', 6, 64), s.Unit, s.N, 100*s.Spread, stable)
		}
	}
	fmt.Println("wrote bench/out/result.json")
}
