// Command bench is the repository's benchmark (BENCHMARK.json): five
// workloads, end-to-end metrics measured with tracing off, and a traced
// run that attributes time to the program's layers by timing calls into
// their public entry points from outside.
//
//	bash bench/run.sh --workload pr_rmat --seed 1 --seconds 10 --trace 0
//	        one workload, one run; the last line of stdout is the result
//	        object BENCHMARK.json's contract describes
//	bash bench/run.sh [-runs N] [-trace 1]
//	        every workload, each run in a fresh child process; prints each
//	        metric by name and writes bench/out/result.json
//	bash bench/run.sh -smoke
//	        every workload, traced and untraced, on tiny inputs (<15 s)
//	bash bench/run.sh -compare A.json B.json
//	        verdict per workload x metric between two result files
//
// See bench/README.md for the workload rationale, the metric -> layer ->
// workload map, and how the bounds were measured.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"
)

// workloadNames is the normative list, in the order runs are reported.
var workloadNames = []string{"pr_rmat", "sssp_grid", "cold_ckpt", "serve_mix", "dist_tcp"}

// runTimeout bounds one workload run well inside the driver's 180 s.
const runTimeout = 150 * time.Second

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	runs     int
	// probeCache, when non-nil, lets consecutive traced runs in one
	// process share one pass of the layer probes (the smoke mode, where
	// five traced runs would otherwise repeat identical probes).
	probeCache *metricSet
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "run one workload and print the result object as the last line")
		seed     = flag.Uint64("seed", 1, "seed of every input generator")
		seconds  = flag.Float64("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
		smoke    = flag.Bool("smoke", false, "tiny inputs, 3 jobs per workload; checks the harness, measures nothing")
		runs     = flag.Int("runs", 1, "with no -workload: how many times each workload is run")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	opt := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, runs: *runs}
	if opt.seconds <= 0 {
		opt.seconds = float64(spec.RunSeconds)
	}

	if opt.smoke && opt.workload == "" {
		ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
		defer cancel()
		if err := runSmoke(ctx, root, spec, opt.seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench: smoke:", err)
			return 1
		}
		return 0
	}
	if opt.workload == "" {
		return runAll(root, spec, opt)
	}
	if !spec.hasWorkload(opt.workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (BENCHMARK.json declares %v)\n", opt.workload, workloadNames)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	res, err := runOne(ctx, root, spec, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printRun(spec, res)
	if err := res.writeFile(root); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := res.printResultLine(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}
