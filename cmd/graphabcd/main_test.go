package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
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

// TestListenRunsRegistryNames: -listen resolves -algo through the
// registry like every other front end, so the canonical name and any
// spelling the registry accepts run a TCP cluster, not just "pr".
func TestListenRunsRegistryNames(t *testing.T) {
	bin := buildCLI(t)
	for _, name := range []string{"pagerank", "PR"} {
		valuesPath := filepath.Join(t.TempDir(), "values.txt")
		coord := exec.Command(bin, "-algo", name, "-dataset", "WT", "-shrink", "6", "-nodes", "2",
			"-listen", "127.0.0.1:0", "-values-out", valuesPath, "-timeout", "2m")
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
			t.Fatalf("-algo %s: coordinator never announced its address:\n%s\n%s", name, strings.Join(lines, "\n"), stderr.String())
		}
		done := make(chan struct{})
		go func() { // drain so the coordinator never blocks on a full pipe
			defer close(done)
			for sc.Scan() {
				lines = append(lines, sc.Text())
			}
		}()
		if out, err := exec.Command(bin, "-join", addr, "-timeout", "2m").CombinedOutput(); err != nil {
			t.Fatalf("-algo %s: joiner: %v\n%s", name, err, out)
		}
		<-done
		if err := coord.Wait(); err != nil {
			t.Fatalf("-algo %s: coordinator: %v\n%s", name, err, stderr.String())
		}
		out := strings.Join(lines, "\n")
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
