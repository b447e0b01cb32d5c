package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"graphabcd"
)

// env is where one run keeps its files. Everything the harness and the
// programs under test write lives under <root>/.bench_build, which the
// root .gitignore names: the built binaries and the run's work directory
// with generated graphs, checkpoints and values files here; the Go build
// cache and temp files (graphabcd -listen stages its snapshot in
// os.TempDir) through the environment run.sh sets, which every child
// inherits.
type env struct {
	root  string  // repository root (holds go.mod, cmd/, BENCHMARK.json)
	bin   string  // built graphabcd, graphabcdd, gengraph
	work  string  // this run's scratch; removed by cleanup
	out   string  // bench/out: result and trace files kept after the run
	build float64 // seconds spent in `go build`, informational
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json, so the harness works from the root (run.sh, the driver)
// and from bench/ (go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

func newEnv(root, tag string) (*env, error) {
	bb := filepath.Join(root, ".bench_build")
	e := &env{
		root: root,
		bin:  filepath.Join(bb, "bin"),
		work: filepath.Join(bb, "work", fmt.Sprintf("%s-%d", tag, os.Getpid())),
		out:  filepath.Join(root, "bench", "out"),
	}
	for _, d := range []string{e.bin, e.work, e.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *env) cleanup() { _ = os.RemoveAll(e.work) } // best-effort scratch removal

// buildPrograms compiles the three commands the workloads drive. With a
// warm cache this is a fraction of a second; the first call in a checkout
// compiles the standard library too. The time is reported as build_s and
// belongs to no metric.
func (e *env) buildPrograms() error {
	if _, err := os.Stat(filepath.Join(e.root, "cmd", "graphabcd")); err != nil {
		return fmt.Errorf("the program's source is not here (%w); the benchmark builds graphabcd from the checkout it runs in", err)
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", e.bin+string(os.PathSeparator),
		"./cmd/graphabcd", "./cmd/graphabcdd", "./cmd/gengraph")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	e.build = time.Since(start).Seconds()
	return nil
}

// command prepares one of the built programs to run in the work directory.
func (e *env) command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(e.bin, name), args...)
	cmd.Dir = e.work
	return cmd
}

// gengraph runs the repository's own generator as a child process, so the
// edge lists it builds never count toward the harness's own peak RSS.
func (e *env) gengraph(args ...string) error {
	cmd := e.command("gengraph", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("gengraph %v: %w: %s", args, err, stderr.String())
	}
	return nil
}

// structureSeed is the generator seed of every input's structure.
const structureSeed = 1

// seededGraph writes a workload's input graph for seed to path. gen names
// the structure to the repository's generator (kind, size, weights); it is
// generated under the fixed structureSeed, and the run's seed draws the
// permutation that relabels vertices within each aligned group of block
// consecutive ids, block being the engine block size the workload runs
// with.
//
// Why the seed does not pick the structure, or a free relabelling: a
// benchmark run differs from the next only by its seed, so whatever a seed
// changes about a job's cost lands in every metric's run-to-run spread.
// Asynchronous block coordinate descent is Gauss-Seidel over blocks: which
// vertices share a block and in which order blocks are visited decide how
// many epochs a job needs. Measured on PageRank over R-MAT scale 16,
// another generator seed moved epochs-to-converge by 25% and a free
// relabelling of one structure still by 20% (8.4 to 10.1 epochs), with job
// time following. Relabelling inside blocks keeps every block's membership
// and the block order, so work-to-converge is the same on every seed, while
// the in-block vertex and edge order the gather and scatter loops walk is
// new on every seed.
func (e *env) seededGraph(path string, block int, seed uint64, gen ...string) error {
	base := filepath.Join(e.work, "structure.gabs")
	args := append(append([]string(nil), gen...), "-seed", strconv.Itoa(structureSeed), "-o", base)
	if err := e.gengraph(args...); err != nil {
		return err
	}
	g, err := graphabcd.Load(base)
	if err != nil {
		return err
	}
	n := g.NumVertices()
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	perm := make([]uint32, n)
	for lo := 0; lo < n; lo += block {
		group := perm[lo:min(lo+block, n)]
		for i, p := range rng.Perm(len(group)) {
			group[i] = uint32(lo + p)
		}
	}
	edges := g.Edges()
	for i := range edges {
		edges[i].Src, edges[i].Dst = perm[edges[i].Src], perm[edges[i].Dst]
	}
	relabelled, err := graphabcd.NewGraph(n, edges)
	if err != nil {
		return err
	}
	return graphabcd.Save(path, relabelled)
}

// rmatGen and gridGen name a structure to the generator: the arguments
// seededGraph and gengraph take.
func rmatGen(scale, maxWeight int) []string {
	return []string{"-kind", "rmat", "-scale", strconv.Itoa(scale), "-edgefactor", strconv.Itoa(rmatEdgeFactor),
		"-maxweight", strconv.Itoa(maxWeight)}
}

func gridGen(side, maxWeight int) []string {
	return []string{"-kind", "grid", "-rows", strconv.Itoa(side), "-cols", strconv.Itoa(side),
		"-maxweight", strconv.Itoa(maxWeight)}
}

// cpuSeconds is user+system CPU time out of a rusage record.
func cpuSeconds(ru *syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// selfUsage returns this process's CPU seconds so far and its peak
// resident set in MB (Linux reports ru_maxrss in KB).
func selfUsage() (cpu, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return cpuSeconds(&ru), float64(ru.Maxrss) / 1024
}

// childUsage is selfUsage for a child that has exited.
func childUsage(ps *os.ProcessState) (cpu, peakMB float64) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok || ru == nil {
		return 0, 0
	}
	return cpuSeconds(ru), float64(ru.Maxrss) / 1024
}

// procUsage reads a live process's CPU seconds and peak RSS from /proc,
// for the server, whose measured window is only part of its life.
func procUsage(pid int) (cpu, peakMB float64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ")".
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	const clockTick = 100 // USER_HZ; fixed at 100 on Linux
	cpu = (ut + st) / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return cpu, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(v)[0], 64)
			if err != nil {
				return cpu, 0, err
			}
			return cpu, kb / 1024, nil
		}
	}
	return cpu, 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// hostFacts describes where a result was measured, so two result files
// can be told apart before their numbers are compared (ROADMAP 1a).
type hostFacts struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	LoadBefore float64 `json:"load1_before"`
	LoadAfter  float64 `json:"load1_after"`
	CalibStart float64 `json:"calib_ns_start"`
	CalibEnd   float64 `json:"calib_ns_end"`
	// Unstable marks a run whose calibration kernel drifted by more than
	// calibDriftLimit between start and end: the host changed speed under
	// the run. -compare judges host speed per file, see refuse.
	Unstable bool `json:"unstable"`
}

// calibDriftLimit is how far two calibration readings may be apart before
// the host counts as having changed speed.
const calibDriftLimit = 0.10

func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64) // 0 on a malformed file is fine for a host fact
	return v
}

var calibSink uint64

// calibWindow is how long one calibration runs.
const calibWindow = 200 * time.Millisecond

// calibrate times a fixed single-threaded, register-only kernel (a
// xorshift chain: no memory traffic, so a neighbour's cache use does not
// move it) and returns the mean ns per pass over calibWindow. It is the
// yardstick for "the machine ran at the same speed at the start and at the
// end of the run": CPU frequency changes and stolen time show, the
// workload's own memory behaviour does not. The mean over a window, not
// the fastest pass: on this host a pass takes 2.9 ms or 3.6 ms and flips
// between the two several times a second (a busy sibling hyperthread), so
// a single pass, or the best of a few, reads one of two values at random.
func calibrate() float64 {
	passes := 0
	start := time.Now()
	for time.Since(start) < calibWindow {
		x := uint64(88172645463325252)
		for i := 0; i < 2_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		passes++
	}
	return float64(time.Since(start)) / float64(passes)
}

func beginHostFacts() hostFacts {
	return hostFacts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LoadBefore: loadAverage(),
		CalibStart: calibrate(),
	}
}

func (h *hostFacts) finish() {
	h.CalibEnd = calibrate()
	h.LoadAfter = loadAverage()
	drift := (h.CalibEnd - h.CalibStart) / h.CalibStart
	h.Unstable = drift > calibDriftLimit || drift < -calibDriftLimit
}
