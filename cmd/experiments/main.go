// Command experiments regenerates the tables and figures of the
// GraphABCD paper's evaluation (Sec. V) on the synthetic dataset analogs.
//
// Usage:
//
//	experiments all
//	experiments -shrink 3 fig4 table3
//	experiments -shrink 0 table2        # full analog sizes (slow)
//
// Each experiment prints the rows the paper's corresponding table/figure
// reports; EXPERIMENTS.md records a full run next to the paper's numbers.
package main

import (
	"flag"
	"fmt"
	"os"

	"graphabcd/internal/exp"
)

var experiments = []struct {
	name string
	desc string
	run  func(exp.Options) error
}{
	{"table1", "dataset analogs vs the paper's Table I", func(o exp.Options) error {
		_, err := exp.Table1(o)
		return err
	}},
	{"fig4", "convergence vs block size and policy (normalized to BSP)", func(o exp.Options) error {
		_, err := exp.Fig4(o)
		return err
	}},
	{"table2", "execution time and MTEPS vs GraphMat and ASIC", func(o exp.Options) error {
		_, err := exp.Table2(o)
		return err
	}},
	{"table3", "iteration counts: priority / cyclic / GraphMat", func(o exp.Options) error {
		_, err := exp.Table3(o)
		return err
	}},
	{"fig5", "CF RMSE convergence curves", func(o exp.Options) error {
		_, err := exp.Fig5(o)
		return err
	}},
	{"fig6", "hardware acceleration vs software cost model", func(o exp.Options) error {
		_, err := exp.Fig6(o)
		return err
	}},
	{"fig7", "async vs barrier vs BSP speedup breakdown", func(o exp.Options) error {
		_, err := exp.Fig7(o)
		return err
	}},
	{"fig8", "PE utilization vs PE count", func(o exp.Options) error {
		_, err := exp.Fig8(o)
		return err
	}},
	{"fig9", "memory traffic breakdown and bus utilization", func(o exp.Options) error {
		_, _, err := exp.Fig9(o)
		return err
	}},
	{"fig10", "scalability in PEs and CPU threads, hybrid on/off", func(o exp.Options) error {
		_, err := exp.Fig10(o)
		return err
	}},
	{"table4", "accelerator resource footprint (FPGA-table substitute)", func(o exp.Options) error {
		_, err := exp.Table4(o)
		return err
	}},
	{"ablation-operator", "pull vs push vs pull-push traffic (Sec. IV-A2)", func(o exp.Options) error {
		_, err := exp.AblationOperator(o)
		return err
	}},
	{"ablation-staleness", "read-to-publish delay (bounded staleness) vs convergence, kernel-driven", func(o exp.Options) error {
		_, err := exp.AblationStaleness(o)
		return err
	}},
	{"ablation-policy", "cyclic vs random vs priority block selection", func(o exp.Options) error {
		_, err := exp.AblationPolicy(o)
		return err
	}},
	{"scaleout", "distributed nodes: convergence preserved as the system scales out", func(o exp.Options) error {
		_, err := exp.ScaleOut(o)
		return err
	}},
	{"ablation-storage", "in-memory vs out-of-core vs compressed edge storage", func(o exp.Options) error {
		_, err := exp.AblationStorage(o)
		return err
	}},
}

func main() {
	shrink := flag.Int("shrink", 2, "dataset scale-down exponent (0 = full analogs)")
	threads := flag.Int("threads", 0, "host threads (0 = GOMAXPROCS)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [flags] <experiment>... | all\n\nexperiments:\n")
		for _, e := range experiments {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.name, e.desc)
		}
		fmt.Fprintf(os.Stderr, "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	opt := exp.Options{Shrink: *shrink, Threads: *threads, Out: os.Stdout}

	want := map[string]bool{}
	for _, a := range args {
		want[a] = true
	}
	ran := 0
	for _, e := range experiments {
		if !want["all"] && !want[e.name] {
			continue
		}
		fmt.Printf("=== %s: %s ===\n", e.name, e.desc)
		if err := e.run(opt); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
		ran++
		delete(want, e.name)
	}
	delete(want, "all")
	if len(want) > 0 && ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment(s): %v\n", keys(want))
		os.Exit(2)
	}
	for k := range want {
		fmt.Fprintf(os.Stderr, "experiments: warning: unknown experiment %q skipped\n", k)
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
