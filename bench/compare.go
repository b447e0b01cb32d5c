package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// verdict of one workload x metric row.
const (
	verdictOK         = "ok"         // B's median is within the bound of A's
	verdictWorse      = "worse"      // B's median is worse than A's by more than the bound
	verdictUnresolved = "unresolved" // a side's run-to-run spread is wider than the bound
)

// compareRow is one line of the -compare table.
type compareRow struct {
	workload, metric, unit string
	a, b                   float64 // medians
	delta                  float64 // relative change, positive = worse
	spread                 float64 // the wider of the two sides' IQR/median
	bound                  float64
	verdict                string
}

// compareRows judges every end-to-end workload x metric pair present in
// both files.
func compareRows(spec *benchSpec, a, b *resultFile) []compareRow {
	samples := func(f *resultFile, wl, metric string) []float64 {
		var xs []float64
		for _, r := range f.Runs {
			if r.Workload == wl && !r.Trace {
				if v, ok := r.Metrics[metric]; ok {
					xs = append(xs, v.Value)
				}
			}
		}
		return xs
	}
	var rows []compareRow
	for _, wl := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			xa, xb := samples(a, wl.Name, d.Name), samples(b, wl.Name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			row := compareRow{workload: wl.Name, metric: d.Name, unit: d.Unit, a: median(xa), b: median(xb), bound: d.Bound}
			row.delta = (row.b - row.a) / row.a
			if d.Better == "higher" {
				row.delta = -row.delta
			}
			row.spread = max(quartileSpread(xa), quartileSpread(xb))
			switch {
			case row.spread > d.Bound:
				row.verdict = verdictUnresolved
			case row.delta > d.Bound:
				row.verdict = verdictWorse
			default:
				row.verdict = verdictOK
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// refuse explains why two result files cannot be compared: a run with
// failed jobs, or hosts that ran at different speeds. Host speed is judged
// per file, not per run: a file's mean calibration time over all its runs'
// start and end readings. (On the host this was written on the kernel
// reads 2.9 ms or 3.6 ms and flips between the two every few seconds, so
// one run's start and end readings differ by more than calibDriftLimit
// in half of all runs while its metrics repeat within 5%; the mean over a
// file's 50 readings repeats within 5%.)
func refuse(pathA string, a *resultFile, pathB string, b *resultFile) error {
	speed := func(path string, f *resultFile) (float64, error) {
		var readings []float64
		for _, r := range f.Runs {
			if r.Trace {
				continue
			}
			if !r.Correct {
				return 0, fmt.Errorf("%s: %s has a run with failed jobs (%d of %d)", path, r.Workload, r.Failed, r.Attempted)
			}
			readings = append(readings, r.Host.CalibStart, r.Host.CalibEnd)
		}
		if len(readings) == 0 {
			return 0, fmt.Errorf("%s: no end-to-end run", path)
		}
		return sum(readings) / float64(len(readings)), nil
	}
	sa, err := speed(pathA, a)
	if err != nil {
		return err
	}
	sb, err := speed(pathB, b)
	if err != nil {
		return err
	}
	if drift := (sb - sa) / sa; sa > 0 && (drift > calibDriftLimit || drift < -calibDriftLimit) {
		return fmt.Errorf("the hosts ran at different speeds: calibration kernel %.0f ns in %s, %.0f ns in %s (more than %.0f%% apart)",
			sa, pathA, sb, pathB, 100*calibDriftLimit)
	}
	return nil
}

// compareFiles prints the verdict table for two result files and returns
// the exit code: 1 on any "worse" row, 2 when a file is refused.
func compareFiles(pathA, pathB string) int {
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
	a, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := refuse(pathA, a, pathB, b); err != nil {
		fmt.Fprintln(os.Stderr, "bench: refused:", err)
		return 2
	}
	rows := compareRows(spec, a, b)
	fmt.Printf("%-10s %-20s %-7s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "unit", "A median", "B median", "delta", "spread", "bound", "verdict")
	worse := false
	for _, r := range rows {
		fmt.Printf("%-10s %-20s %-7s %14s %14s %+7.1f%% %7.1f%% %6.0f%%  %s\n", r.workload, r.metric, r.unit,
			strconv.FormatFloat(r.a, 'g', 6, 64), strconv.FormatFloat(r.b, 'g', 6, 64),
			100*r.delta, 100*r.spread, 100*r.bound, r.verdict)
		worse = worse || r.verdict == verdictWorse
	}
	fmt.Println("delta is B against A with the sign turned so that positive is worse; spread is the wider side's IQR/median")
	if worse {
		return 1
	}
	return 0
}
