package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"graphabcd"
)

// distWorkload is dist_tcp: every job is two real graphabcd processes on
// loopback — a -listen coordinator and a -join joiner — timed from the
// first spawn until the coordinator has written the values file and
// exited. It is the only workload whose end-to-end time is dominated by
// internal/cluster/tcp.
type distWorkload struct {
	e     *env
	seed  uint64
	smoke bool

	path string
}

const (
	distScale, distScaleSmoke = 14, 11
	distJobsPerSecond         = 3.6
	distWorkersPerNode        = 1
)

func (w *distWorkload) setup(ctx context.Context) error {
	w.path = filepath.Join(w.e.work, "dist.gabs")
	scale := distScale
	if w.smoke {
		scale = distScaleSmoke
	}
	if err := w.e.gengraph("-kind", "uniform", "-n", strconv.Itoa(1<<scale), "-m", strconv.Itoa(rmatEdgeFactor<<scale),
		"-seed", strconv.FormatUint(w.seed, 10), "-o", w.path); err != nil {
		return err
	}
	_, err := w.runJob(ctx, nil, "warm-up") // one job warms the page cache and the loopback path
	return err
}

func (w *distWorkload) teardown() {}

// distJob is what one two-process run reports.
type distJob struct {
	wall       float64 // first spawn -> coordinator exit (values file written)
	serveWall  float64 // the coordinator's own "wall time" line
	batches    float64
	wireBytes  float64
	frames     float64
	reconnects float64
	drops      float64
	highWater  float64
	cpu        float64 // coordinator + joiner, user+sys
	rssMB      float64 // coordinator + joiner peak RSS, summed
	values     []float64
}

var (
	coordinatingRE = regexp.MustCompile(`^coordinating \d+ nodes on (\S+)`)
	wireRE         = regexp.MustCompile(`^wire: (\d+) B in (\d+) frames sent, \d+ B in \d+ frames recv, (\d+) reconnects, (\d+) drops \(\d+ crc\), queue high water (\d+)`)
)

func (w *distWorkload) runJob(ctx context.Context, tr *tracer, id string) (*distJob, error) {
	valuesPath := filepath.Join(w.e.work, "dist-values.txt")
	if err := os.Remove(valuesPath); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	root := tr.begin(spanRef{}, "job.dist", id)
	defer root.end()

	coord := w.e.command("graphabcd", "-algo", "pr", "-graph", w.path, "-nodes", "2",
		"-workers-per-node", strconv.Itoa(distWorkersPerNode), "-listen", "127.0.0.1:0", "-values-out", valuesPath)
	stdout, err := coord.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var coordErr strings.Builder
	coord.Stderr = &coordErr

	start := time.Now()
	sp := tr.begin(root, "tcp.spawn_coordinator", id)
	if err := coord.Start(); err != nil {
		return nil, err
	}
	// From here on both processes are always reaped: kill on any early
	// return, Wait in every path.
	var join *exec.Cmd
	reap := func() {
		_ = coord.Process.Kill() // already-exited is fine
		_ = coord.Wait()
		if join != nil {
			_ = join.Process.Kill()
			_ = join.Wait()
		}
	}
	stop := context.AfterFunc(ctx, func() { _ = coord.Process.Kill() })
	defer stop()

	lines := bufio.NewScanner(stdout)
	addr := ""
	for lines.Scan() {
		if m := coordinatingRE.FindStringSubmatch(lines.Text()); m != nil {
			addr = m[1]
			break
		}
	}
	sp.end()
	if addr == "" {
		reap()
		return nil, fmt.Errorf("coordinator never announced its address: %s", coordErr.String())
	}

	sp = tr.begin(root, "tcp.serve_join", id)
	join = w.e.command("graphabcd", "-join", addr)
	var joinErr strings.Builder
	join.Stderr = &joinErr
	if err := join.Start(); err != nil {
		join = nil
		reap()
		return nil, err
	}
	job := &distJob{}
	for lines.Scan() {
		line := lines.Text()
		switch {
		case strings.HasPrefix(line, "batches sent: "):
			job.batches, _ = strconv.ParseFloat(strings.TrimPrefix(line, "batches sent: "), 64) // 0 when absent
		case strings.HasPrefix(line, "wall time: "):
			if d, err := time.ParseDuration(strings.TrimPrefix(line, "wall time: ")); err == nil {
				job.serveWall = d.Seconds()
			}
		default:
			if m := wireRE.FindStringSubmatch(line); m != nil {
				f := func(s string) float64 { v, _ := strconv.ParseFloat(s, 64); return v } // digits by the regexp
				job.wireBytes, job.frames, job.reconnects, job.drops, job.highWater = f(m[1]), f(m[2]), f(m[3]), f(m[4]), f(m[5])
			}
		}
	}
	coordWaitErr := coord.Wait()
	job.wall = time.Since(start).Seconds()
	sp.end()
	joinWaitErr := join.Wait()
	if coordWaitErr != nil {
		return nil, fmt.Errorf("coordinator: %w: %s", coordWaitErr, coordErr.String())
	}
	if joinWaitErr != nil {
		return nil, fmt.Errorf("joiner: %w: %s", joinWaitErr, joinErr.String())
	}
	c1, r1 := childUsage(coord.ProcessState)
	c2, r2 := childUsage(join.ProcessState)
	job.cpu, job.rssMB = c1+c2, r1+r2

	sp = tr.begin(root, "result.Read", id)
	job.values, err = readValues(valuesPath)
	sp.end()
	if err != nil {
		return nil, err
	}
	return job, nil
}

func (w *distWorkload) measure(ctx context.Context, seconds float64, tr *tracer) (*measured, error) {
	g, err := graphabcd.Load(w.path)
	if err != nil {
		return nil, err
	}
	want := pagerankOracle(g)
	n := jobCount(seconds, distJobsPerSecond, w.smoke)
	m := &measured{info: map[string]any{}}
	var jobs []*distJob

	start := time.Now()
	for i := 0; i < n; i++ {
		traced := tr != nil && tracedTurn(i)
		job, err := w.runJob(ctx, tr.onlyIf(traced), fmt.Sprintf("dist-%d", i))
		m.attempted++
		if err != nil {
			m.fail("job %d: %v", i, err)
			continue
		}
		if err := checkPagerank(job.values, want); err != nil {
			m.fail("job %d: %v", i, err)
		}
		job.values = nil
		jobs = append(jobs, job)
		m.jobs = append(m.jobs, job.wall)
		if traced {
			m.traced = append(m.traced, job.wall)
		} else {
			m.untraced = append(m.untraced, job.wall)
		}
		m.cpu += job.cpu
		m.peakRSSMB = max(m.peakRSSMB, job.rssMB)
	}
	m.closedWall = time.Since(start).Seconds()
	m.closedJobs, m.cpuJobs = m.attempted-m.failed, n
	if len(jobs) == 0 {
		return m, nil
	}

	col := func(f func(*distJob) float64) []float64 {
		xs := make([]float64, len(jobs))
		for i, j := range jobs {
			xs[i] = f(j)
		}
		return xs
	}
	serve := col(func(j *distJob) float64 { return j.serveWall })
	batches := col(func(j *distJob) float64 { return j.batches })
	wire := col(func(j *distJob) float64 { return j.wireBytes })
	m.info["batches_sent_spread"] = quartileSpread(batches)
	// dist_tcp exercises the tcp layer itself: the coordinator's own
	// counters replace the in-process probe's for these metrics. The
	// engine runs inside the two processes, so core.engine_s_p50 is the
	// coordinator's wall; the rest of core.* comes from in-process copies
	// of the same PageRank job.
	if tr == nil {
		return m, nil
	}
	cfg := engineConfig(pagerankBlock(g), graphabcd.Cyclic)
	cfg.NumPEs = distWorkersPerNode
	if m.layer, err = replicaLayer(ctx, g, "pagerank", cfg, nil, replicaJobs, tr); err != nil {
		return nil, err
	}
	m.layer["core.engine_s_p50"] = median(serve)
	m.layer["tcp.serve_wall_s_p50"] = median(serve)
	m.layer["tcp.spawn_join_s_p50"] = median(col(func(j *distJob) float64 { return j.wall - j.serveWall }))
	m.layer["tcp.batches_sent"] = median(batches)
	m.layer["tcp.wire_bytes_sent"] = median(wire)
	m.layer["tcp.frames_sent"] = median(col(func(j *distJob) float64 { return j.frames }))
	m.layer["tcp.ack_drops"] = median(col(func(j *distJob) float64 { return j.drops }))
	m.layer["tcp.reconnects"] = sum(col(func(j *distJob) float64 { return j.reconnects }))
	m.layer["tcp.queue_high_water"] = percentile(col(func(j *distJob) float64 { return j.highWater }), 100)
	if b := median(batches); b > 0 {
		m.layer["tcp.bytes_per_batch"] = median(wire) / b
	}
	return m, nil
}
