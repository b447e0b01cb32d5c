package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// buildCLI builds this command into a test temp dir.
func buildCLI(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "graphabcd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building binary: %v\n%s", err, out)
	}
	return bin
}

// coordinate runs a -listen coordinator with args and one joiner, and
// returns the coordinator's stdout lines.
func coordinate(t *testing.T, bin string, args ...string) []string {
	t.Helper()
	coord := exec.Command(bin, append(args, "-nodes", "2", "-listen", "127.0.0.1:0", "-timeout", "2m")...)
	stdout, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	coord.Stderr = &stderr
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Process.Kill() })

	var addr string
	var lines []string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		lines = append(lines, line)
		if i := strings.Index(line, " nodes on "); strings.HasPrefix(line, "coordinating") && i >= 0 {
			addr = strings.Fields(line[i+len(" nodes on "):])[0]
			break
		}
	}
	if addr == "" {
		_ = coord.Wait()
		t.Fatalf("%v: coordinator never announced its address:\n%s\n%s", args, strings.Join(lines, "\n"), stderr.String())
	}
	done := make(chan struct{})
	go func() { // drain so the coordinator never blocks on a full pipe
		defer close(done)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
	}()
	if out, err := exec.Command(bin, "-join", addr, "-timeout", "2m").CombinedOutput(); err != nil {
		t.Fatalf("%v: joiner: %v\n%s", args, err, out)
	}
	<-done
	if err := coord.Wait(); err != nil {
		t.Fatalf("%v: coordinator: %v\n%s", args, err, stderr.String())
	}
	return lines
}

// TestListenRunsRegistryNames: -listen resolves -algo through the
// registry like every other front end, so the canonical name and any
// spelling the registry accepts run a TCP cluster, not just "pr".
func TestListenRunsRegistryNames(t *testing.T) {
	bin := buildCLI(t)
	for _, name := range []string{"pagerank", "PR"} {
		valuesPath := filepath.Join(t.TempDir(), "values.txt")
		out := strings.Join(coordinate(t, bin, "-algo", name, "-dataset", "WT", "-shrink", "6", "-values-out", valuesPath), "\n")
		if !strings.Contains(out, "top rank 1: vertex") {
			t.Fatalf("-algo %s: coordinator printed no ranks:\n%s", name, out)
		}
		raw, err := os.ReadFile(valuesPath)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(raw), "\n"); n != 512 {
			t.Fatalf("-algo %s: values file has %d lines, want 512 (WT at shrink 6)", name, n)
		}
	}
}

// TestListenPlainSnapshotMatchesLocalRun: a -listen coordinator reads a
// plain .gabs's header and out-offsets instead of loading it, yet prints
// the graph line, default source and top-k lines of a local run on the
// same graph — all 512, so the order of the +Inf ties and of the finite
// distances both count — and writes the same values file, every float in
// %.17g. SSSP's fixed point is exact, unreachable vertices included.
func TestListenPlainSnapshotMatchesLocalRun(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	snap, localPath, listenPath := filepath.Join(dir, "g.gabs"), filepath.Join(dir, "local.txt"), filepath.Join(dir, "listen.txt")
	local, err := exec.Command(bin, "-algo", "sssp", "-dataset", "WT", "-shrink", "6", "-top", "512",
		"-save-graph", snap, "-values-out", localPath).CombinedOutput()
	if err != nil {
		t.Fatalf("local run: %v\n%s", err, local)
	}
	listen := coordinate(t, bin, "-algo", "sssp", "-graph", snap, "-top", "512", "-values-out", listenPath)

	headline := func(lines []string) []string {
		var out []string
		for _, l := range lines {
			if strings.HasPrefix(l, "graph: ") || strings.HasPrefix(l, "source: ") || strings.HasPrefix(l, "top dist ") {
				out = append(out, l)
			}
		}
		return out
	}
	want, got := headline(strings.Split(string(local), "\n")), headline(listen)
	if len(want) != 2+512 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("-listen printed\n%s\nwant the local run's\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	wantRaw, err := os.ReadFile(localPath)
	if err != nil {
		t.Fatal(err)
	}
	gotRaw, err := os.ReadFile(listenPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotRaw) != string(wantRaw) {
		t.Fatal("-listen values file differs from the local run's")
	}
	lines := strings.Split(strings.TrimSuffix(string(gotRaw), "\n"), "\n")
	inf := 0
	for i, l := range lines {
		x, err := strconv.ParseFloat(l, 64)
		if err != nil || fmt.Sprintf("%.17g", x) != l {
			t.Fatalf("line %d %q is not %%.17g (%v)", i+1, l, err)
		}
		if math.IsInf(x, 1) {
			inf++
		}
	}
	if len(lines) != 512 || inf == 0 || inf == len(lines) {
		t.Fatalf("%d values, %d unreachable: want 512 with some of each", len(lines), inf)
	}
}

// TestListenRefusesWhatTCPCannotRun: the spec-to-DistConfig conversion
// refuses an epoch budget (the control lane keeps no cluster-wide update
// count) and a non-distributed algorithm, naming the flag or the
// registry's choices, before anything listens.
func TestListenRefusesWhatTCPCannotRun(t *testing.T) {
	bin := buildCLI(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-algo", "pagerank", "-max-epochs", "5"}, "-max-epochs is not supported with -listen"},
		{[]string{"-algo", "kcore"}, "kcore does not support distributed execution (pick pagerank, sssp, bfs, or cc)"},
	} {
		args := append(tc.args, "-dataset", "WT", "-shrink", "6", "-nodes", "2", "-listen", "127.0.0.1:0", "-timeout", "1m")
		out, err := exec.Command(bin, args...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Fatalf("%v: want exit status 1, got %v\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) || strings.Contains(string(out), "coordinating") {
			t.Fatalf("%v: want the refusal %q before listening, got:\n%s", tc.args, tc.want, out)
		}
	}
}
