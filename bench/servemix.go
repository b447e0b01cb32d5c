package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"graphabcd"
)

// serveWorkload is serve_mix: a real graphabcdd process under a request
// mix. Phase A is an open loop — flows are due on a fixed schedule and
// timed from their due time, so queueing in the server cannot hide —
// and Phase B is a closed loop of two clients submitting miss jobs back to
// back, which gives the capacity number a fixed-rate phase cannot.
//
// Miss jobs are BFS from a never-repeated source, not the issue's SSSP:
// graphabcdd cannot encode SSSP's +Inf for unreachable vertices (the
// values response is an empty 200), and an R-MAT graph always has
// unreachable vertices. Point queries stay SSSP, on reachable vertices.
type serveWorkload struct {
	e     *env
	seed  uint64
	smoke bool

	rig *serveRig
}

const (
	serveScale, serveScaleSmoke = 14, 11
	serveMaxWeight              = 16
	serveGraph                  = "g"
	serveRate                   = 50.0 // Phase A flows per second
	servePhaseAShare            = 0.6  // of the measured window
	servePhaseBJobsPerSecond    = 40.0 // Phase B miss jobs per second of window
	serveClients                = 2    // Phase B closed-loop clients (= nproc)
	serveHotSources             = 8
	serveQueryVertices          = 3
	serveMinSourceDegree        = 8 // puts a source in the giant component
)

// Phase A mix, in percent of flows.
const (
	mixMiss, mixHit, mixQuery = 30, 20, 40 // the remaining 10 are polls
)

type flowKind int

const (
	flowMiss flowKind = iota
	flowHit
	flowQuery
	flowPoll
)

type hotQuery struct {
	source   uint32
	vertices []uint32
}

// server is one running graphabcdd.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	client *http.Client
	stderr bytes.Buffer
	exited chan struct{} // closed once the process has been reaped
	err    error         // its exit status, valid after exited
}

var servingRE = regexp.MustCompile(`^graphabcdd serving on (http://\S+)`)

// startServer boots graphabcdd on an ephemeral port with the graph
// preloaded and returns once /readyz answers 200.
func startServer(ctx context.Context, e *env, graphsDir string) (*server, error) {
	s := &server{exited: make(chan struct{})}
	s.cmd = e.command("graphabcdd", "-addr", "127.0.0.1:0", "-graphs", graphsDir, "-preload", serveGraph,
		"-max-running", strconv.Itoa(serveClients), "-pes", strconv.Itoa(benchPEs), "-log-level", "warn")
	s.cmd.Stderr = &s.stderr
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	stopKill := context.AfterFunc(ctx, func() { _ = s.cmd.Process.Kill() }) // unblocks the scan below on timeout
	defer stopKill()
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if m := servingRE.FindStringSubmatch(sc.Text()); m != nil {
			s.base = m[1]
			break
		}
	}
	//abcdlint:ignore goroutine -- reaper for the server child: it ends when the process closes stdout and exits, and stop() waits for it through s.exited
	go func() {
		for sc.Scan() { // drain "graphabcdd stopped" so the child never blocks on a full pipe
		}
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	if s.base == "" {
		s.stop()
		return nil, fmt.Errorf("graphabcdd never announced its address: %s", s.stderr.String())
	}
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxInFlight}}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if ctx.Err() != nil {
			break
		}
		resp, err := s.client.Get(s.base + "/readyz")
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body) // "ok" or "not ready"
		_ = resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return s, nil
		}
	}
	s.stop()
	return nil, fmt.Errorf("graphabcdd not ready: %s", s.stderr.String())
}

// stop asks the server to shut down (SIGTERM is its documented clean
// stop), waits for the process to be reaped, and kills it if it lingers.
func (s *server) stop() {
	if s.client != nil {
		// A kept-alive connection that never carried a request would hold
		// the server's graceful shutdown for its full five seconds.
		s.client.CloseIdleConnections()
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// jobBody is the part of graphabcdd's job status JSON the harness reads.
type jobBody struct {
	ID        string  `json:"id"`
	State     string  `json:"state"`
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Error     string  `json:"error"`
	Stats     *struct {
		Converged bool    `json:"converged"`
		Edges     float64 `json:"edges_traversed"`
		WallMS    float64 `json:"wall_ms"`
	} `json:"stats"`
	Float []float64 `json:"float"`
	Uint  []uint64  `json:"uint"`
}

// pendingCheck is a response kept for verification after the measured
// window, so that decoding and oracle work never overlap a timed flow.
type pendingCheck struct {
	kind   flowKind
	name   string
	source uint32
	hot    *hotQuery
	body   []byte
}

// session drives flows against one server and collects their samples.
type session struct {
	srv *server
	tr  *tracer

	mu          sync.Mutex
	flowS       [4][]float64 // per flowKind: seconds from due time to last byte
	tracedS     []float64    // miss flows that recorded spans, and those that did not,
	untracedS   []float64    // for the tracing-overhead ratio of a traced run
	submitMs    []float64
	sseFirstMs  []float64
	valuesMs    []float64
	valuesBytes []float64
	pollMs      []float64
	reqS        []float64 // every HTTP round trip
	rejected429 int
	rejected503 int
	attempted   int
	failed      int
	failures    []string
	pending     []pendingCheck
}

func (ss *session) fail(format string, args ...any) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.failed++
	if len(ss.failures) < 5 {
		ss.failures = append(ss.failures, fmt.Sprintf(format, args...))
	}
}

// request performs one HTTP round trip and reads the body to its last
// byte. stream, when non-nil, is called with each line as it arrives (the
// SSE route); otherwise the whole body is returned.
func (ss *session) request(ctx context.Context, method, path string, payload []byte, stream func(line string)) (status int, body []byte, dur time.Duration, err error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, method, ss.srv.base+path, bytes.NewReader(payload))
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := ss.srv.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	defer func() { _ = resp.Body.Close() }() // fully read below
	if stream != nil {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			stream(sc.Text())
		}
		err = sc.Err()
	} else {
		body, err = io.ReadAll(resp.Body)
	}
	dur = time.Since(start)
	ss.mu.Lock()
	ss.reqS = append(ss.reqS, dur.Seconds())
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		ss.rejected429++
	case http.StatusServiceUnavailable:
		ss.rejected503++
	}
	ss.mu.Unlock()
	return resp.StatusCode, body, dur, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finish records a flow's end: its latency from the due time, and whether
// it failed before there was anything to verify.
func (ss *session) finish(kind flowKind, due time.Time, root spanRef, err error) {
	lat := time.Since(due).Seconds()
	root.end()
	ss.mu.Lock()
	ss.attempted++
	if err == nil {
		ss.flowS[kind] = append(ss.flowS[kind], lat)
	}
	ss.mu.Unlock()
	if err != nil {
		ss.fail("%v", err)
	}
}

func (ss *session) keep(c pendingCheck) {
	ss.mu.Lock()
	ss.pending = append(ss.pending, c)
	ss.mu.Unlock()
}

// miss is the full job flow for a never-repeated BFS source: submit, follow
// the event stream to the terminal event, fetch the status with values.
func (ss *session) miss(ctx context.Context, due time.Time, source uint32, name string, traced bool) {
	tr := ss.tr.onlyIf(traced)
	root := tr.begin(spanRef{}, "job.miss", name)
	err := func() error {
		payload := fmt.Appendf(nil, `{"algorithm":"bfs","graph":%q,"source":%d}`, serveGraph, source)
		sp := tr.begin(root, "serve.submit", name)
		status, body, dur, err := ss.request(ctx, http.MethodPost, "/v1/jobs", payload, nil)
		sp.end()
		if err != nil {
			return fmt.Errorf("%s submit: %w", name, err)
		}
		if status != http.StatusAccepted {
			return fmt.Errorf("%s submit: status %d: %s", name, status, body)
		}
		var accepted jobBody
		if err := json.Unmarshal(body, &accepted); err != nil || accepted.ID == "" {
			return fmt.Errorf("%s submit: bad body %q", name, body)
		}

		sp = tr.begin(root, "serve.events", name)
		firstEvent, err := ss.followEvents(ctx, accepted.ID)
		sp.end()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}

		sp = tr.begin(root, "serve.values", name)
		status, body, vdur, err := ss.request(ctx, http.MethodGet, "/v1/jobs/"+accepted.ID, nil, nil)
		sp.end()
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("%s values: status %d: %v", name, status, err)
		}
		ss.mu.Lock()
		ss.submitMs = append(ss.submitMs, ms(dur))
		ss.sseFirstMs = append(ss.sseFirstMs, ms(firstEvent))
		ss.valuesMs = append(ss.valuesMs, ms(vdur))
		ss.valuesBytes = append(ss.valuesBytes, float64(len(body)))
		ss.mu.Unlock()
		ss.keep(pendingCheck{kind: flowMiss, name: name, source: source, body: body})
		return nil
	}()
	ss.finish(flowMiss, due, root, err)
	if err == nil {
		lat := time.Since(due).Seconds()
		ss.mu.Lock()
		if traced {
			ss.tracedS = append(ss.tracedS, lat)
		} else {
			ss.untracedS = append(ss.untracedS, lat)
		}
		ss.mu.Unlock()
	}
}

// hit resubmits the one fixed PageRank spec; the server answers 200 with
// the cached values in the submit response.
func (ss *session) hit(ctx context.Context, due time.Time, name string) {
	root := ss.tr.begin(spanRef{}, "job.hit", name)
	err := func() error {
		sp := ss.tr.begin(root, "serve.submit_cached", name)
		status, body, _, err := ss.request(ctx, http.MethodPost, "/v1/jobs", hitPayload(), nil)
		sp.end()
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("%s: status %d: %v", name, status, err)
		}
		ss.keep(pendingCheck{kind: flowHit, name: name, body: body})
		return nil
	}()
	ss.finish(flowHit, due, root, err)
}

func hitPayload() []byte {
	return fmt.Appendf(nil, `{"algorithm":"pagerank","graph":%q}`, serveGraph)
}

// query is a point query: SSSP distances of three vertices from one of the
// hot sources.
func (ss *session) query(ctx context.Context, due time.Time, hq *hotQuery, name string) {
	root := ss.tr.begin(spanRef{}, "job.query", name)
	err := func() error {
		vs := make([]string, len(hq.vertices))
		for i, v := range hq.vertices {
			vs[i] = strconv.FormatUint(uint64(v), 10)
		}
		path := fmt.Sprintf("/v1/query?graph=%s&algorithm=sssp&source=%d&vertices=%s", serveGraph, hq.source, strings.Join(vs, ","))
		sp := ss.tr.begin(root, "serve.query", name)
		status, body, _, err := ss.request(ctx, http.MethodGet, path, nil, nil)
		sp.end()
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("%s: status %d: %v: %s", name, status, err, body)
		}
		ss.keep(pendingCheck{kind: flowQuery, name: name, hot: hq, body: body})
		return nil
	}()
	ss.finish(flowQuery, due, root, err)
}

// poll alternates the two cheap read routes: one job without values, and
// the job list.
func (ss *session) poll(ctx context.Context, due time.Time, jobID string, list bool, name string) {
	root := ss.tr.begin(spanRef{}, "job.poll", name)
	err := func() error {
		path := "/v1/jobs/" + jobID + "?values=false"
		if list {
			path = "/v1/jobs"
		}
		sp := ss.tr.begin(root, "serve.poll", name)
		status, body, dur, err := ss.request(ctx, http.MethodGet, path, nil, nil)
		sp.end()
		if err != nil || status != http.StatusOK || !json.Valid(body) {
			return fmt.Errorf("%s: status %d: %v", name, status, err)
		}
		ss.mu.Lock()
		ss.pollMs = append(ss.pollMs, ms(dur))
		ss.mu.Unlock()
		return nil
	}()
	ss.finish(flowPoll, due, root, err)
}

// verify checks every kept response against the oracles and returns the
// queue-wait samples (status elapsed_ms minus engine wall_ms) and the
// engine walls and edge counts of the miss jobs it saw.
func (ss *session) verify(g *graphabcd.Graph) (queueMs, engineS, edges []float64) {
	var wantPR []float64
	dist := make(map[uint32][]float64)
	for _, c := range ss.pending {
		switch c.kind {
		case flowMiss:
			var b jobBody
			if err := json.Unmarshal(c.body, &b); err != nil {
				ss.fail("%s: values body: %v (%d bytes)", c.name, err, len(c.body))
				continue
			}
			if b.State != "done" || b.Stats == nil || !b.Stats.Converged {
				ss.fail("%s: state %q error %q", c.name, b.State, b.Error)
				continue
			}
			if err := checkExactUint("bfs", b.Uint, bfsOracle(g, c.source)); err != nil {
				ss.fail("%s: %v", c.name, err)
			}
			queueMs = append(queueMs, b.ElapsedMS-b.Stats.WallMS)
			engineS = append(engineS, b.Stats.WallMS/1e3)
			edges = append(edges, b.Stats.Edges)
		case flowHit:
			var b jobBody
			if err := json.Unmarshal(c.body, &b); err != nil {
				ss.fail("%s: body: %v", c.name, err)
				continue
			}
			if wantPR == nil {
				wantPR = pagerankOracle(g)
			}
			if !b.Cached {
				ss.fail("%s: not served from the cache", c.name)
			} else if err := checkPagerank(b.Float, wantPR); err != nil {
				ss.fail("%s: %v", c.name, err)
			}
		case flowQuery:
			var b struct {
				Values map[string]float64 `json:"values"`
			}
			if err := json.Unmarshal(c.body, &b); err != nil {
				ss.fail("%s: body: %v", c.name, err)
				continue
			}
			want, ok := dist[c.hot.source]
			if !ok {
				want = dijkstraOracle(g, c.hot.source)
				dist[c.hot.source] = want
			}
			for _, v := range c.hot.vertices {
				if got, ok := b.Values[strconv.FormatUint(uint64(v), 10)]; !ok || got != want[v] {
					ss.fail("%s: vertex %d = %v, oracle says %v", c.name, v, got, want[v])
					break
				}
			}
		}
	}
	ss.pending = nil
	return queueMs, engineS, edges
}

// scrapeMetrics reads the counters of graphabcdd's /metrics.
func (ss *session) scrapeMetrics(ctx context.Context) (map[string]float64, error) {
	status, body, _, err := ss.request(ctx, http.MethodGet, "/metrics", nil, nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d: %v", status, err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, nil
}

// serveRig is a booted server plus the seeded inputs flows draw from.
type serveRig struct {
	srv     *server
	g       *graphabcd.Graph
	rng     *rand.Rand
	sources []uint32 // never-repeated miss sources, consumed in order
	next    int
	hot     []hotQuery
	pollID  string // a finished job for the poll route
}

// bootRig generates the graph with the repository's generator, boots the
// server on it, and warms it: three miss jobs, the hit spec computed once
// so later submissions are cache hits, and each hot point query once.
func bootRig(ctx context.Context, e *env, seed uint64, scale int) (*serveRig, error) {
	dir := filepath.Join(e.work, "graphs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, serveGraph+".gabs")
	if err := e.seededGraph(path, pagerankBlockOf(1<<scale), seed, rmatGen(scale, serveMaxWeight)...); err != nil {
		return nil, err
	}
	srv, err := startServer(ctx, e, dir)
	if err != nil {
		return nil, err
	}
	r := &serveRig{srv: srv, rng: rand.New(rand.NewPCG(seed, 0x5e77e))}
	if r.g, err = graphabcd.Load(path); err != nil {
		r.close()
		return nil, err
	}
	for v := 0; v < r.g.NumVertices(); v++ {
		if r.g.OutDegree(uint32(v)) >= serveMinSourceDegree {
			r.sources = append(r.sources, uint32(v))
		}
	}
	r.rng.Shuffle(len(r.sources), func(i, j int) { r.sources[i], r.sources[j] = r.sources[j], r.sources[i] })
	if len(r.sources) < 4*serveHotSources {
		r.close()
		return nil, fmt.Errorf("serve graph has only %d usable sources", len(r.sources))
	}
	for _, src := range r.sources[:serveHotSources] {
		hq := hotQuery{source: src}
		for e := r.g.OutOffset(int(src)); e < r.g.OutOffset(int(src)+1) && len(hq.vertices) < serveQueryVertices; e++ {
			if u := r.g.OutDst(e); u != src && (len(hq.vertices) == 0 || hq.vertices[len(hq.vertices)-1] != u) {
				hq.vertices = append(hq.vertices, u)
			}
		}
		r.hot = append(r.hot, hq)
	}
	r.sources = r.sources[serveHotSources:]

	warm := &session{srv: srv}
	for i := 0; i < warmupJobs; i++ {
		warm.miss(ctx, time.Now(), r.source(), fmt.Sprintf("warm-miss-%d", i), false)
	}
	if len(warm.pending) > 0 {
		var b jobBody
		if err := json.Unmarshal(warm.pending[0].body, &b); err == nil {
			r.pollID = b.ID
		}
	}
	if err := warm.computeHitSpec(ctx); err != nil {
		warm.fail("%v", err)
	}
	for i := range r.hot {
		warm.query(ctx, time.Now(), &r.hot[i], fmt.Sprintf("warm-query-%d", i))
	}
	warm.verify(r.g)
	if warm.failed > 0 || r.pollID == "" {
		r.close()
		return nil, fmt.Errorf("serve warm-up failed: %v", warm.failures)
	}
	return r, nil
}

// computeHitSpec submits the hit spec for the first time and waits for it,
// so that every later submission of it is answered from the cache.
func (ss *session) computeHitSpec(ctx context.Context) error {
	status, body, _, err := ss.request(ctx, http.MethodPost, "/v1/jobs", hitPayload(), nil)
	if err != nil || status != http.StatusAccepted {
		return fmt.Errorf("hit spec submit: status %d: %v", status, err)
	}
	var b jobBody
	if err := json.Unmarshal(body, &b); err != nil {
		return err
	}
	if _, err := ss.followEvents(ctx, b.ID); err != nil {
		return fmt.Errorf("hit spec: %w", err)
	}
	return nil
}

// followEvents reads a job's SSE stream to its end, which must be the
// "done" event, and returns how long the first event took to arrive.
func (ss *session) followEvents(ctx context.Context, jobID string) (firstEvent time.Duration, err error) {
	start := time.Now()
	last := ""
	status, _, _, err := ss.request(ctx, http.MethodGet, "/v1/jobs/"+jobID+"/events", nil, func(line string) {
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			if firstEvent == 0 {
				firstEvent = time.Since(start)
			}
			last = ev
		}
	})
	if err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("events: status %d: %v", status, err)
	}
	if last != "done" {
		return 0, fmt.Errorf("events: stream ended on %q", last)
	}
	return firstEvent, nil
}

func (r *serveRig) source() uint32 {
	s := r.sources[r.next%len(r.sources)]
	r.next++
	return s
}

func (r *serveRig) close() {
	r.srv.stop()
	r.g = nil
}

// mixSchedule lays out n flows with the exact mix shares, in a seeded
// order, so every run of a seed issues the same flows in the same order.
func (r *serveRig) mixSchedule(n int) []flowKind {
	kinds := make([]flowKind, n)
	nMiss, nHit, nQuery := n*mixMiss/100, n*mixHit/100, n*mixQuery/100
	for i := range kinds {
		switch {
		case i < nMiss:
			kinds[i] = flowMiss
		case i < nMiss+nHit:
			kinds[i] = flowHit
		case i < nMiss+nHit+nQuery:
			kinds[i] = flowQuery
		default:
			kinds[i] = flowPoll
		}
	}
	r.rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

// serveRun is what one Phase A + Phase B pass over a rig measured.
type serveRun struct {
	ss         *session
	lateness   []float64 // Phase A generator lateness, ms
	closedWall float64   // Phase B wall seconds
	closedJobs int       // Phase B miss jobs attempted
	flows      int       // flows attempted in both phases
}

// run drives Phase A (open loop, nA flows at rate per second) and Phase B
// (closed loop, nB miss jobs over serveClients clients). With a tracer,
// half of the miss flows record spans (tracedTurn).
func (r *serveRig) run(ctx context.Context, tr *tracer, rate float64, nA, nB int) *serveRun {
	ss := &session{srv: r.srv, tr: tr}
	kinds := r.mixSchedule(nA)
	// Inputs are fixed before the clock starts: sources, hot queries and
	// the poll flavour of every flow.
	srcs := make([]uint32, nA)
	for i, k := range kinds {
		if k == flowMiss {
			srcs[i] = r.source()
		}
	}
	interval := time.Duration(float64(time.Second) / rate)
	late := runOpenLoop(wallClock{}, time.Now().Add(10*time.Millisecond), interval, nA, func(i int, due time.Time) {
		name := fmt.Sprintf("a-%d", i)
		switch kinds[i] {
		case flowMiss:
			ss.miss(ctx, due, srcs[i], name, tracedTurn(i))
		case flowHit:
			ss.hit(ctx, due, name)
		case flowQuery:
			ss.query(ctx, due, &r.hot[i%len(r.hot)], name)
		default:
			ss.poll(ctx, due, r.pollID, i%2 == 0, name)
		}
	})
	out := &serveRun{ss: ss, closedJobs: nB, flows: nA + nB}
	for _, l := range late {
		out.lateness = append(out.lateness, ms(l))
	}

	bSrcs := make([]uint32, nB)
	for i := range bSrcs {
		bSrcs[i] = r.source()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		//abcdlint:ignore goroutine -- deliberate load-generator clients: serveClients closed-loop goroutines, joined by wg below
		go func(c int) {
			defer wg.Done()
			for i := c; i < nB; i += serveClients {
				ss.miss(ctx, time.Now(), bSrcs[i], fmt.Sprintf("b-%d", i), tracedTurn(i))
			}
		}(c)
	}
	wg.Wait()
	out.closedWall = time.Since(start).Seconds()
	return out
}

func (w *serveWorkload) setup(ctx context.Context) error {
	scale := serveScale
	if w.smoke {
		scale = serveScaleSmoke
	}
	rig, err := bootRig(ctx, w.e, w.seed, scale)
	w.rig = rig
	return err
}

func (w *serveWorkload) teardown() {
	if w.rig != nil {
		w.rig.close()
		w.rig = nil
	}
}

func (w *serveWorkload) measure(ctx context.Context, seconds float64, tr *tracer) (*measured, error) {
	nA := int(seconds*servePhaseAShare*serveRate + 0.5)
	nB := int(seconds*servePhaseBJobsPerSecond + 0.5)
	if w.smoke {
		nA, nB = 10, serveClients
	}
	pid := w.rig.srv.cmd.Process.Pid
	before, err := (&session{srv: w.rig.srv}).scrapeMetrics(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, _, err := procUsage(pid)
	if err != nil {
		return nil, err
	}
	run := w.rig.run(ctx, tr, serveRate, nA, nB)
	cpu1, peak, err := procUsage(pid)
	if err != nil {
		return nil, err
	}
	after, err := run.ss.scrapeMetrics(ctx)
	if err != nil {
		return nil, err
	}
	m := run.fold(w.rig.g, before, after)
	m.cpu, m.cpuJobs, m.peakRSSMB = cpu1-cpu0, run.flows, peak
	if tr == nil {
		return m, nil
	}
	// The engine runs inside the server; core.* and runtime.* come from
	// in-process copies of the miss job under the server's engine config.
	cfg := graphabcd.DefaultConfig(pagerankBlock(w.rig.g))
	cfg.NumPEs = benchPEs
	core, err := replicaLayer(ctx, w.rig.g, "bfs", cfg, []graphabcd.JobOption{graphabcd.WithSource(w.rig.source())}, replicaJobs, tr)
	if err != nil {
		return nil, err
	}
	for k, v := range m.layer {
		core[k] = v
	}
	m.layer = core
	return m, nil
}

// fold verifies the run's responses and turns its samples into a measured
// record with the serve.* layer metrics.
func (run *serveRun) fold(g *graphabcd.Graph, before, after map[string]float64) *measured {
	ss := run.ss
	queueMs, engineS, _ := ss.verify(g)
	m := &measured{
		jobs:       ss.flowS[flowMiss],
		attempted:  ss.attempted,
		failed:     ss.failed,
		failures:   ss.failures,
		closedWall: run.closedWall,
		traced:     ss.tracedS,
		untraced:   ss.untracedS,
		info:       map[string]any{},
	}
	// Phase B's verified jobs: its flows are the last closedJobs misses;
	// a failure anywhere voids the run, so counting attempted is exact
	// whenever the result is accepted.
	m.closedJobs = run.closedJobs
	if ss.failed > 0 {
		m.closedJobs = 0
	}
	for i, name := range []string{"miss", "hit", "query", "poll"} {
		m.info[name+"_flows"] = len(ss.flowS[i])
	}
	delta := func(key string) float64 { return after[key] - before[key] }
	hits, misses := delta("graphabcdd_cache_hits_total"), delta("graphabcdd_cache_misses_total")
	m.layer = metricSet{
		"serve.submit_ms_p50":          orZero(median(ss.submitMs)),
		"serve.poll_ms_p50":            orZero(median(ss.pollMs)),
		"serve.values_ms_p50":          orZero(median(ss.valuesMs)),
		"serve.values_bytes":           orZero(median(ss.valuesBytes)),
		"serve.queue_ms_p50":           orZero(median(queueMs)),
		"serve.sse_first_event_ms_p50": orZero(median(ss.sseFirstMs)),
		"serve.req_s_p99":              orZero(percentile(ss.reqS, 99)),
		"serve.reject_429":             float64(ss.rejected429),
		"serve.reject_503":             float64(ss.rejected503),
		"serve.cache_hit_ratio":        orZero(hits / (hits + misses)),
		"serve.gen_lateness_ms_p99":    orZero(percentile(run.lateness, 99)),
		"serve.miss_s_p50":             orZero(median(ss.flowS[flowMiss])),
		"serve.miss_s_p90":             orZero(percentile(ss.flowS[flowMiss], 90)),
		"serve.hit_s_p50":              orZero(median(ss.flowS[flowHit])),
		"serve.query_s_p50":            orZero(median(ss.flowS[flowQuery])),
		"serve.capacity_jobs_per_s":    float64(m.closedJobs) / run.closedWall,
		"core.engine_s_p50":            orZero(median(engineS)),
	}
	return m
}
