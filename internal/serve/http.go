package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"graphabcd"
	"graphabcd/internal/checkpoint"
	"graphabcd/internal/obslog"
	"graphabcd/internal/telemetry"
)

// Options configures a Server. The zero value serves from the current
// directory with conservative defaults; every limit is optional.
type Options struct {
	// GraphDir is the snapshot directory the graph pool loads from.
	GraphDir string
	// MemoryBudget bounds the pool's resident bytes; <= 0 is unlimited.
	MemoryBudget int64
	// MaxRunning is the worker count — the number of jobs executing
	// concurrently. 0 means 2.
	MaxRunning int
	// QueueDepth bounds the submitted-but-not-running backlog; a full
	// queue rejects with 503 and flips /readyz. 0 means 64.
	QueueDepth int
	// TenantRate and TenantBurst parameterize the per-tenant token
	// bucket (tokens/second, bucket size). Burst 0 disables limiting.
	TenantRate  float64
	TenantBurst int
	// CacheEntries bounds the result cache, which both answers repeat
	// submissions and holds every finished job's values: a job's GET
	// answers 410 once its entry is evicted. 0 means 256; negative turns
	// off answering one job from another's result, and the cache then
	// still keeps the default number of results for the jobs' own reads.
	CacheEntries int
	// CheckpointDir enables durable jobs: the job journal and the
	// engine's checkpoint epochs live here. Empty rejects "durable".
	CheckpointDir string
	// CheckpointInterval is a durable job's checkpoint period; 0 means
	// checkpoint.DefaultInterval.
	CheckpointInterval time.Duration
	// EngineDefaults is the base engine Config every job starts from
	// before request overrides apply; nil means DefaultConfig(0), whose
	// zero block size Runtime.Run resolves.
	EngineDefaults *graphabcd.Config
	// Runtime overrides the execution runtime (nil means
	// graphabcd.NewRuntime).
	Runtime graphabcd.Runtime
	// Preload names graphs to load into the pool before serving.
	Preload []string
	// Clock overrides time.Now for deterministic tests.
	Clock func() time.Time
	// Log overrides the obslog default logger.
	Log *slog.Logger
}

// Server is the HTTP analytics server: the graph pool, job manager,
// result cache, and admission control behind one ServeMux.
type Server struct {
	health *telemetry.Health
	mgr    *Manager
	mux    *http.ServeMux

	rejectsRate  atomic.Int64
	rejectsQueue atomic.Int64
}

// defaultCacheEntries is Options.CacheEntries' default, also the
// retention bound of a cache that answers no repeats (NewCache).
const defaultCacheEntries = 256

// WithDefaults returns o with every zero-valued limit resolved to its
// documented default — the one place those defaults are defined.
func (o Options) WithDefaults() Options {
	if o.MaxRunning <= 0 {
		o.MaxRunning = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = defaultCacheEntries
	}
	if o.CheckpointInterval <= 0 {
		o.CheckpointInterval = checkpoint.DefaultInterval
	}
	if o.EngineDefaults == nil {
		cfg := graphabcd.DefaultConfig(0)
		o.EngineDefaults = &cfg
	}
	return o
}

// New builds a Server: opens the journal, starts the workers, preloads
// graphs, resumes journaled durable jobs, and flips /readyz to ready.
func New(opts Options) (*Server, error) {
	opts = opts.WithDefaults()
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.Log == nil {
		opts.Log = obslog.L()
	}
	if opts.Runtime == nil {
		opts.Runtime = graphabcd.NewRuntime()
	}

	health := telemetry.NewHealth("starting")
	mgr, err := newManager(opts, health)
	if err != nil {
		return nil, err
	}
	s := &Server{health: health, mgr: mgr}
	s.routes()

	for _, name := range opts.Preload {
		_, _, release, err := mgr.pool.Acquire(name)
		if err != nil {
			mgr.Close()
			return nil, fmt.Errorf("serve: preloading %q: %w", name, err)
		}
		release() // resident but unpinned; the budget may evict it later
	}
	if n, err := mgr.Resume(); err != nil {
		opts.Log.Error("journal resume failed", "err", err)
	} else if n > 0 {
		opts.Log.Info("resumed durable jobs from journal", "jobs", n)
	}
	health.SetReady(true, "serving")
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Health exposes the readiness tracker (tests assert its History).
func (s *Server) Health() *telemetry.Health { return s.health }

// Close drains the job subsystem. In-flight durable jobs are left
// resumable: no terminal journal records are written during shutdown.
func (s *Server) Close() { s.mgr.Close() }

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("GET /v1/graphs", s.handleGraphs)
	s.mux.HandleFunc("GET /v1/query", s.handleQuery)
	s.mux.Handle("GET /healthz", telemetry.HealthzHandler())
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// writeError maps the graphabcd sentinels onto HTTP statuses: unknown
// algorithm 400, unknown graph/job 404, evicted values 410, tenant rate
// limit 429, shared overload 503. Everything else is a 400 — submissions
// fail fast on malformed input, and engine-side failures surface as job
// state, not transport errors.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, errRateLimited):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, graphabcd.ErrOverloaded):
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, graphabcd.ErrGraphNotFound), errors.Is(err, graphabcd.ErrJobNotFound):
		code = http.StatusNotFound
	case errors.Is(err, errValuesGone):
		code = http.StatusGone
	case errors.Is(err, graphabcd.ErrUnknownAlgorithm):
		code = http.StatusBadRequest
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeJSON encodes before it commits the status line, so a value
// encoding/json refuses becomes a 500 with an error body instead of a
// 200 with no body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		buf.Reset()
		code = http.StatusInternalServerError
		_ = json.NewEncoder(&buf).Encode(map[string]string{"error": "serve: encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

// jsonFloat is x, or nil (JSON null) when x is ±Inf or NaN — values JSON
// cannot carry, e.g. the SSSP distance of an unreachable vertex.
func jsonFloat(x float64) any {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return nil
	}
	return x
}

// jsonFloats is xs itself when every value is finite — the common case,
// encoded exactly as a []float64 always was — and otherwise a copy with
// null in place of each non-finite value.
func jsonFloats(xs []float64) any {
	for i := range xs {
		if jsonFloat(xs[i]) == nil {
			out := make([]any, len(xs))
			for j, x := range xs {
				out[j] = jsonFloat(x)
			}
			return out
		}
	}
	return xs
}

// jobStatus is the wire form of a job.
type jobStatus struct {
	ID        string  `json:"id"`
	Algorithm string  `json:"algorithm"`
	Graph     string  `json:"graph"`
	State     string  `json:"state"`
	Cached    bool    `json:"cached"`
	Durable   bool    `json:"durable,omitempty"`
	Tenant    string  `json:"tenant,omitempty"`
	Created   string  `json:"created"`
	Finished  string  `json:"finished,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Error     string  `json:"error,omitempty"`

	Stats *statsBody `json:"stats,omitempty"`

	Float     any         `json:"float,omitempty"` // []float64, or []any with null for non-finite values
	Uint      []uint64    `json:"uint,omitempty"`
	Vectors   [][]float32 `json:"vectors,omitempty"`
	Residuals any         `json:"residuals,omitempty"`
}

type statsBody struct {
	Epochs         float64 `json:"epochs"`
	Converged      bool    `json:"converged"`
	VertexUpdates  int64   `json:"vertex_updates"`
	EdgesTraversed int64   `json:"edges_traversed"`
	WallMS         float64 `json:"wall_ms"`
	Nodes          int     `json:"nodes,omitempty"`
}

// status renders v, with the values of res when it is non-nil.
func (s *Server) status(v JobView, res *graphabcd.JobResult) jobStatus {
	st := jobStatus{
		ID: v.ID, Algorithm: v.Algorithm, Graph: v.Graph,
		State: string(v.State), Cached: v.Cached, Durable: v.Durable, Tenant: v.Tenant,
		Created: v.Created.UTC().Format(time.RFC3339Nano),
		Error:   v.Err,
	}
	if v.State.Terminal() {
		st.Finished = v.Finished.UTC().Format(time.RFC3339Nano)
		st.ElapsedMS = float64(v.Finished.Sub(v.Created)) / float64(time.Millisecond)
	} else {
		st.ElapsedMS = float64(s.mgr.o.Clock().Sub(v.Created)) / float64(time.Millisecond)
	}
	if v.Stats != nil {
		st.Stats = &statsBody{
			Epochs:         v.Stats.Epochs,
			Converged:      v.Stats.Converged,
			VertexUpdates:  v.Stats.VertexUpdates,
			EdgesTraversed: v.Stats.EdgesTraversed,
			WallMS:         float64(v.Stats.WallTime) / float64(time.Millisecond),
		}
		if v.Cluster != nil {
			st.Stats.Nodes = v.Cluster.Nodes
		}
	}
	if res != nil {
		st.Uint, st.Vectors = res.Uint, res.Vectors
		if len(res.Float) > 0 {
			st.Float = jsonFloats(res.Float)
		}
		if len(res.Residuals) > 0 {
			st.Residuals = jsonFloats(res.Residuals)
		}
	}
	return st
}

// writeJob answers with v and its values — 410 when a done job's values
// have been evicted.
func (s *Server) writeJob(w http.ResponseWriter, code int, v JobView) {
	res, err := s.mgr.Values(v)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, code, s.status(v, res))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("serve: decoding job request: %w", err))
		return
	}
	_, v, err := s.mgr.Submit(&req, tenantOf(r))
	if err != nil {
		switch {
		case errors.Is(err, errRateLimited):
			s.rejectsRate.Add(1)
		case errors.Is(err, graphabcd.ErrOverloaded):
			s.rejectsQueue.Add(1)
		}
		writeError(w, err)
		return
	}
	if v.State.Terminal() { // only the cache-hit edge submits straight to done
		s.writeJob(w, http.StatusOK, v)
		return
	}
	writeJSON(w, http.StatusAccepted, s.status(v, nil))
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	views := s.mgr.List()
	sort.Slice(views, func(i, j int) bool { return views[i].Created.Before(views[j].Created) })
	out := make([]jobStatus, len(views))
	for i, v := range views {
		out[i] = s.status(v, nil)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, fmt.Errorf("%w: %q", graphabcd.ErrJobNotFound, r.PathValue("id")))
		return
	}
	if r.URL.Query().Get("values") == "false" {
		writeJSON(w, http.StatusOK, s.status(job.View(), nil))
		return
	}
	s.writeJob(w, http.StatusOK, job.View())
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	v, ok := s.mgr.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, fmt.Errorf("%w: %q", graphabcd.ErrJobNotFound, r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusAccepted, s.status(v, nil))
}

// sseEvent is the SSE data payload for one runtime event.
type sseEvent struct {
	Job          string  `json:"job"`
	Epoch        int     `json:"epoch"`
	Residual     float64 `json:"residual,omitempty"`
	ActiveBlocks int     `json:"active_blocks,omitempty"`
	Error        string  `json:"error,omitempty"`
}

func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, fmt.Errorf("%w: %q", graphabcd.ErrJobNotFound, r.PathValue("id")))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, fmt.Errorf("serve: response writer cannot stream"))
		return
	}
	ch, unsubscribe := job.Subscribe()
	defer unsubscribe()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			data, _ := json.Marshal(sseEvent{
				Job: ev.Job, Epoch: ev.Epoch, Residual: ev.Residual,
				ActiveBlocks: ev.ActiveBlocks, Error: ev.Err,
			})
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
				return // client went away
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	type algoBody struct {
		Name             string                `json:"name"`
		Aliases          []string              `json:"aliases,omitempty"`
		Description      string                `json:"description"`
		Values           string                `json:"values"`
		NeedsSource      bool                  `json:"needs_source,omitempty"`
		NeedsSeeds       bool                  `json:"needs_seeds,omitempty"`
		Distributed      bool                  `json:"distributed,omitempty"`
		DefaultMaxEpochs float64               `json:"default_max_epochs,omitempty"`
		Params           []graphabcd.ParamSpec `json:"params,omitempty"`
	}
	specs := graphabcd.Algorithms()
	out := make([]algoBody, len(specs))
	for i, a := range specs {
		out[i] = algoBody{
			Name: a.Name, Aliases: a.Aliases, Description: a.Description,
			Values: a.Values.String(), NeedsSource: a.NeedsSource, NeedsSeeds: a.NeedsSeeds,
			Distributed: a.Distributed, DefaultMaxEpochs: a.DefaultMaxEpochs, Params: a.Params,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"algorithms": out})
}

func (s *Server) handleGraphs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"graphs":         s.mgr.pool.List(),
		"resident_bytes": s.mgr.pool.UsedBytes(),
	})
}

// handleQuery serves point queries: run (or cache-hit) the job and return
// only the requested vertices' values — SSSP/BFS distances from a source,
// a CC component id, personalized PageRank scores. ?top=k instead returns
// the k highest-valued vertices.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	req := JobRequest{Algorithm: q.Get("algorithm"), Graph: q.Get("graph")}
	if v := q.Get("source"); v != "" {
		src, err := strconv.ParseUint(v, 10, 32)
		if err != nil {
			writeError(w, fmt.Errorf("serve: bad source %q: %w", v, err))
			return
		}
		u := uint32(src)
		req.Source = &u
	}
	if v := q.Get("seeds"); v != "" {
		seeds, err := parseVertexList(v)
		if err != nil {
			writeError(w, err)
			return
		}
		req.Seeds = seeds
	}
	if v := q.Get("damping"); v != "" {
		d, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, fmt.Errorf("serve: bad damping %q: %w", v, err))
			return
		}
		req.Damping = d
	}
	var vertices []uint32
	if v := q.Get("vertices"); v != "" {
		var err error
		if vertices, err = parseVertexList(v); err != nil {
			writeError(w, err)
			return
		}
	}
	topK := 0
	if v := q.Get("top"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k <= 0 {
			writeError(w, fmt.Errorf("serve: bad top %q", v))
			return
		}
		topK = k
	}
	if len(vertices) == 0 && topK == 0 {
		writeError(w, fmt.Errorf("serve: point query needs ?vertices=... or ?top=k"))
		return
	}

	start := s.mgr.o.Clock()
	job, _, err := s.mgr.Submit(&req, tenantOf(r))
	if err != nil {
		writeError(w, err)
		return
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		return
	}
	v := job.View()
	if v.State != StateDone {
		writeError(w, fmt.Errorf("serve: query job %s ended %s: %s", v.ID, v.State, v.Err))
		return
	}
	res, err := s.mgr.Values(v)
	if err != nil {
		writeError(w, err)
		return
	}
	value := func(i uint32) any {
		if res.Float != nil {
			return jsonFloat(res.Float[i])
		}
		return res.Uint[i]
	}
	n := len(res.Float) + len(res.Uint)
	body := map[string]any{
		"job":        v.ID,
		"graph":      v.Graph,
		"algorithm":  v.Algorithm,
		"cached":     v.Cached,
		"elapsed_ms": float64(s.mgr.o.Clock().Sub(start)) / float64(time.Millisecond),
	}
	if len(vertices) > 0 {
		values := make(map[string]any, len(vertices))
		for _, vtx := range vertices {
			if int(vtx) >= n {
				writeError(w, fmt.Errorf("serve: vertex %d outside graph with %d vertices", vtx, n))
				return
			}
			values[strconv.FormatUint(uint64(vtx), 10)] = value(vtx)
		}
		body["values"] = values
	}
	if topK > 0 {
		if res.Float == nil {
			writeError(w, fmt.Errorf("serve: ?top=k needs a float-valued algorithm"))
			return
		}
		type ranked struct {
			Vertex uint32 `json:"vertex"`
			Value  any    `json:"value"`
		}
		order := make([]uint32, len(res.Float))
		for i := range order {
			order[i] = uint32(i)
		}
		sort.Slice(order, func(a, b int) bool { return res.Float[order[a]] > res.Float[order[b]] })
		top := make([]ranked, min(topK, len(order)))
		for i := range top {
			top[i] = ranked{Vertex: order[i], Value: jsonFloat(res.Float[order[i]])}
		}
		body["top"] = top
	}
	writeJSON(w, http.StatusOK, body)
}

func parseVertexList(s string) ([]uint32, error) {
	parts := strings.Split(s, ",")
	out := make([]uint32, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("serve: bad vertex id %q: %w", p, err)
		}
		out = append(out, uint32(v))
	}
	return out, nil
}

// handleReadyz folds admission state into readiness: a saturated job
// queue reports 503 so load balancers steer new work elsewhere, on top of
// the Health tracker's own not-ready windows (startup, graph loads).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.mgr.QueueFull() {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("not ready: job queue saturated\n"))
		return
	}
	telemetry.ReadyzHandler(s.health).ServeHTTP(w, r)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	hits, misses, entries := s.mgr.cache.Stats()
	depth, capacity := s.mgr.QueueDepth()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := telemetry.NewPromWriter(w) // a failed write means the scraper left: nothing to report
	p.Printf("graphabcdd_jobs_done_total %d\n", s.mgr.doneJobs.Load())
	p.Printf("graphabcdd_jobs_failed_total %d\n", s.mgr.failedJobs.Load())
	p.Printf("graphabcdd_cache_hits_total %d\n", hits)
	p.Printf("graphabcdd_cache_misses_total %d\n", misses)
	p.Printf("graphabcdd_cache_entries %d\n", entries)
	p.Printf("graphabcdd_pool_resident_bytes %d\n", s.mgr.pool.UsedBytes())
	p.Printf("graphabcdd_queue_depth %d\n", depth)
	p.Printf("graphabcdd_queue_capacity %d\n", capacity)
	p.Printf("graphabcdd_admission_rejected_total{reason=\"rate\"} %d\n", s.rejectsRate.Load())
	p.Printf("graphabcdd_admission_rejected_total{reason=\"queue\"} %d\n", s.rejectsQueue.Load())
}
