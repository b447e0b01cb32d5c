package serve

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"graphabcd"
	"graphabcd/internal/checkpoint"
)

// State is a job's position in the serving state machine:
//
//	queued -> running -> done | failed | cancelled
//
// A cache hit skips the machine entirely and materializes a done job.
type State string

// Job states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobRequest is the POST /v1/jobs body: which algorithm over which pooled
// graph, plus the algorithm parameters and engine knobs a tenant may set.
// It doubles as the journal record for durable jobs, so every field must
// round-trip through JSON.
type JobRequest struct {
	Algorithm string          `json:"algorithm"`
	Graph     string          `json:"graph"`
	Source    *uint32         `json:"source,omitempty"`
	Seeds     []uint32        `json:"seeds,omitempty"`
	Damping   float64         `json:"damping,omitempty"`
	MaxEpochs float64         `json:"max_epochs,omitempty"`
	Epsilon   *float64        `json:"epsilon,omitempty"`
	BlockSize int             `json:"block_size,omitempty"`
	Cluster   *ClusterRequest `json:"cluster,omitempty"`
	// Durable journals the job and checkpoints engine state under the
	// server's checkpoint directory; a restarted server resubmits it,
	// resuming from the last committed epoch.
	Durable bool `json:"durable,omitempty"`
}

// ClusterRequest selects the in-process distributed engine.
type ClusterRequest struct {
	Nodes          int `json:"nodes"`
	WorkersPerNode int `json:"workers_per_node"`
	BlockSize      int `json:"block_size,omitempty"`
}

// Job is one tracked submission.
type Job struct {
	ID      string
	Tenant  string
	Durable bool
	Req     *JobRequest

	mu        sync.Mutex
	state     State
	cached    bool
	created   time.Time
	started   time.Time
	finished  time.Time
	result    *graphabcd.JobResult
	err       error
	cancelReq bool
	cancel    context.CancelFunc
	done      chan struct{}
	events    []graphabcd.Event
	subs      map[chan graphabcd.Event]struct{}
	closed    bool // event stream terminal-delivered and subs closed
}

// maxEventLog bounds the per-job event history replayed to late SSE
// subscribers; older progress events are dropped, terminal events never.
const maxEventLog = 1024

// JobView is a consistent snapshot of a job for the HTTP layer.
type JobView struct {
	ID        string
	Tenant    string
	Algorithm string
	Graph     string
	State     State
	Cached    bool
	Durable   bool
	Created   time.Time
	Started   time.Time
	Finished  time.Time
	Err       string
	Result    *graphabcd.JobResult
}

// View snapshots the job under its lock.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID: j.ID, Tenant: j.Tenant, Algorithm: j.Req.Algorithm, Graph: j.Req.Graph,
		State: j.state, Cached: j.cached, Durable: j.Durable,
		Created: j.created, Started: j.started, Finished: j.finished,
	}
	if j.err != nil {
		v.Err = j.err.Error()
	}
	if j.state.Terminal() {
		v.Result = j.result
	}
	return v
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Subscribe returns a channel replaying the job's event history and then
// streaming live events; it is closed after the terminal event. Call the
// returned cancel function when done (safe after close).
func (j *Job) Subscribe() (<-chan graphabcd.Event, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan graphabcd.Event, len(j.events)+maxEventLog)
	for _, ev := range j.events {
		ch <- ev
	}
	if j.closed {
		close(ch)
		return ch, func() {}
	}
	if j.subs == nil {
		j.subs = make(map[chan graphabcd.Event]struct{})
	}
	j.subs[ch] = struct{}{}
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
	}
}

// broadcast appends ev to the history and fans it out. Progress events are
// dropped for slow subscribers; a terminal event evicts stale progress
// from the subscriber's buffer instead, then closes every subscription.
func (j *Job) broadcast(ev graphabcd.Event) {
	terminal := ev.Type == graphabcd.EventDone || ev.Type == graphabcd.EventFailed
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	if len(j.events) >= maxEventLog {
		j.events = append(j.events[:0], j.events[1:]...)
	}
	j.events = append(j.events, ev)
	for ch := range j.subs {
		if terminal {
			for delivered := false; !delivered; {
				select {
				case ch <- ev:
					delivered = true
				default:
					select {
					case <-ch:
					default:
					}
				}
			}
		} else {
			select {
			case ch <- ev:
			default:
			}
		}
	}
	if terminal {
		for ch := range j.subs {
			close(ch)
		}
		j.subs = nil
		j.closed = true
	}
}

// Manager owns the job table, the bounded queue, and the worker pool that
// drives submissions through a graphabcd.Runtime.
type Manager struct {
	rt       graphabcd.Runtime
	pool     *Pool
	cache    *Cache
	limiter  *Limiter
	base     *graphabcd.Config
	clock    func() time.Time
	log      *slog.Logger
	journal  *journal
	ckptDir  string
	ckptIntv time.Duration
	ckptSt   *checkpoint.DirStore

	ctx      context.Context
	cancel   context.CancelFunc
	queue    chan *Job
	wg       sync.WaitGroup
	seq      atomic.Int64
	shutdown atomic.Bool

	mu     sync.Mutex
	jobs   map[string]*Job
	closed bool

	doneJobs   atomic.Int64
	failedJobs atomic.Int64
}

type managerOptions struct {
	runtime    graphabcd.Runtime
	pool       *Pool
	cache      *Cache
	limiter    *Limiter
	base       *graphabcd.Config
	clock      func() time.Time
	log        *slog.Logger
	journal    *journal
	ckptDir    string
	ckptIntv   time.Duration
	maxRunning int
	queueDepth int
}

func newManager(o managerOptions) *Manager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		rt: o.runtime, pool: o.pool, cache: o.cache, limiter: o.limiter,
		base: o.base, clock: o.clock, log: o.log, journal: o.journal,
		ckptDir: o.ckptDir, ckptIntv: o.ckptIntv,
		ctx: ctx, cancel: cancel,
		queue: make(chan *Job, o.queueDepth),
		jobs:  make(map[string]*Job),
	}
	if m.ckptDir != "" {
		if st, err := checkpoint.NewDirStore(m.ckptDir); err == nil {
			m.ckptSt = st
		}
	}
	for i := 0; i < o.maxRunning; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit admits, registers, and enqueues one job. The error, when
// non-nil, wraps one of the graphabcd sentinels: ErrOverloaded (rate
// limit or full queue), ErrUnknownAlgorithm, or ErrGraphNotFound.
func (m *Manager) Submit(req *JobRequest, tenant string) (*Job, error) {
	if !m.limiter.Allow(tenant) {
		return nil, errRateLimited
	}
	return m.submit(req, tenant, "")
}

func (m *Manager) submit(req *JobRequest, tenant, id string) (*Job, error) {
	alg, err := graphabcd.LookupAlgorithm(req.Algorithm)
	if err != nil {
		return nil, err
	}
	req.Algorithm = alg.Name
	if err := validGraphName(req.Graph); err != nil {
		return nil, err
	}
	if !m.pool.Exists(req.Graph) {
		return nil, fmt.Errorf("%w: %q", graphabcd.ErrGraphNotFound, req.Graph)
	}
	if req.Durable && req.Cluster != nil {
		return nil, fmt.Errorf("serve: durable jobs are single-node only; drop \"cluster\" or \"durable\"")
	}
	if req.Durable && m.ckptDir == "" {
		return nil, fmt.Errorf("serve: durable jobs need a checkpoint directory; start the server with -ckpt-dir")
	}

	now := m.clock()
	if id == "" {
		id = fmt.Sprintf("j-%d", m.seq.Add(1))
	}
	job := &Job{
		ID: id, Tenant: tenant, Durable: req.Durable, Req: req,
		state: StateQueued, created: now, done: make(chan struct{}),
	}

	// A warm cache hit never touches the queue: the job materializes
	// directly in the done state with the shared cached result.
	if epoch, ok := m.pool.Resident(req.Graph); ok {
		key := cacheKey(req.Graph, epoch, req.Algorithm, canonicalParams(req))
		if res, ok := m.cache.Get(key); ok {
			m.finishCached(job, res)
			m.register(job)
			return job, nil
		}
	}

	if err := m.enqueue(job); err != nil {
		return nil, err
	}

	if job.Durable && m.journal != nil {
		if err := m.journal.append(journalRecord{ID: job.ID, Tenant: tenant, Request: req}); err != nil {
			m.log.Error("journal append failed; job will not survive a restart", "job", job.ID, "err", err)
		}
	}
	return job, nil
}

// enqueue registers job and reserves a queue slot under one lock, so a
// concurrent Close cannot close the queue between the check and the send;
// the send never blocks (default arm), so holding m.mu across it is safe.
func (m *Manager) enqueue(job *Job) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errQueueFull
	}
	select {
	case m.queue <- job:
	default:
		return errQueueFull
	}
	m.jobs[job.ID] = job
	return nil
}

func (m *Manager) register(job *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs[job.ID] = job
}

// finishCached completes job immediately from a cached result.
func (m *Manager) finishCached(job *Job, res *graphabcd.JobResult) {
	now := m.clock()
	job.mu.Lock()
	job.state = StateDone
	job.cached = true
	job.started, job.finished = now, now
	job.result = res
	job.mu.Unlock()
	close(job.done)
	job.broadcast(graphabcd.Event{Job: job.ID, Type: graphabcd.EventDone, Epoch: int(res.Stats.Epochs)})
	m.doneJobs.Add(1)
}

// Get returns the job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List snapshots every tracked job, newest id last.
func (m *Manager) List() []JobView {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	out := make([]JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j.View()
	}
	return out
}

// Cancel stops a job: a queued job goes terminal immediately (the worker
// skips it), a running one gets its context cancelled and drains to the
// cancelled state with its partial result.
func (m *Manager) Cancel(id string) (*Job, bool) {
	j, ok := m.Get(id)
	if !ok {
		return nil, false
	}
	cancel, terminal := j.beginCancel(m.clock())
	if terminal {
		j.broadcast(graphabcd.Event{Job: id, Type: graphabcd.EventFailed, Err: "cancelled"})
		m.journalTerminal(j)
	}
	if cancel != nil {
		cancel()
	}
	return j, true
}

// beginCancel flips the job's state under its lock: a queued job goes
// terminal immediately (terminal=true; the caller broadcasts and journals
// outside the lock), a running one records the cancel request and hands
// back its context cancel to invoke.
func (j *Job) beginCancel(now time.Time) (cancel context.CancelFunc, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.finished = now
		close(j.done)
		return nil, true
	case StateRunning:
		j.cancelReq = true
		return j.cancel, false
	default:
		return nil, false
	}
}

// QueueFull reports a saturated queue — the signal /readyz folds in so
// load balancers stop routing to a server that would only answer 503.
func (m *Manager) QueueFull() bool {
	return len(m.queue) == cap(m.queue)
}

// QueueDepth returns current and maximum queue length.
func (m *Manager) QueueDepth() (int, int) {
	return len(m.queue), cap(m.queue)
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		m.run(job)
	}
}

// start transitions the job queued→running under its lock, wiring a
// cancellable context derived from parent. ok=false means the job went
// terminal (cancelled) while it sat queued.
func (j *Job) start(parent context.Context, now time.Time) (jctx context.Context, cancel context.CancelFunc, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return nil, nil, false
	}
	jctx, cancel = context.WithCancel(parent)
	j.state = StateRunning
	j.started = now
	j.cancel = cancel
	return jctx, cancel, true
}

func (m *Manager) run(job *Job) {
	jctx, cancel, ok := job.start(m.ctx, m.clock())
	if !ok {
		return // cancelled while queued
	}
	defer cancel()

	if m.ctx.Err() != nil { // shutdown drain: don't load graphs or start engines
		m.finish(job, StateCancelled, nil, nil)
		return
	}

	g, epoch, release, err := m.pool.Acquire(job.Req.Graph)
	if err != nil {
		m.finish(job, StateFailed, nil, err)
		return
	}
	defer release()

	// Re-probe the cache now that the graph (and its epoch) is resident:
	// an identical job may have completed while this one sat queued.
	key := cacheKey(job.Req.Graph, epoch, job.Req.Algorithm, canonicalParams(job.Req))
	if res, ok := m.cache.Get(key); ok {
		job.mu.Lock()
		job.cached = true
		job.mu.Unlock()
		m.finish(job, StateDone, res, nil)
		return
	}

	spec, err := m.buildSpec(job, g)
	if err != nil {
		m.finish(job, StateFailed, nil, err)
		return
	}
	h, err := m.rt.Run(jctx, spec)
	if err != nil {
		m.finish(job, StateFailed, nil, err)
		return
	}
	for ev := range h.Events() {
		if ev.Type == graphabcd.EventEpoch {
			ev.Job = job.ID
			job.broadcast(ev)
		}
	}
	res, err := h.Result()

	// jctx.Err() covers both user cancellation and server shutdown; a
	// drained partial result must neither read as done nor be cached.
	job.mu.Lock()
	cancelled := job.cancelReq || jctx.Err() != nil
	job.mu.Unlock()
	switch {
	case err != nil:
		m.finish(job, StateFailed, nil, err)
	case cancelled:
		m.finish(job, StateCancelled, res, nil)
	default:
		// Publish before announcing: a waiter woken by finish may re-query
		// straight away and must find the result in the cache.
		m.cache.Put(key, res)
		m.finish(job, StateDone, res, nil)
	}
}

// buildSpec assembles the JobSpec: server-wide engine defaults, then the
// request's overrides, then the per-algorithm epoch budget for
// non-convergent workloads, then checkpoint wiring for durable jobs.
func (m *Manager) buildSpec(job *Job, g *graphabcd.Graph) (graphabcd.JobSpec, error) {
	req := job.Req
	var cfg graphabcd.Config
	if m.base != nil {
		cfg = *m.base
	} else {
		cfg = graphabcd.DefaultConfig(0) // Runtime applies the |V|/256 heuristic
	}
	cfg.Telemetry = nil // per-job registries only; a shared one would mix runs
	if req.BlockSize > 0 {
		cfg.BlockSize = req.BlockSize
	}
	if req.Epsilon != nil {
		cfg.Epsilon = *req.Epsilon
	}
	if req.MaxEpochs > 0 {
		cfg.MaxEpochs = req.MaxEpochs
	} else if cfg.MaxEpochs == 0 {
		if alg, err := graphabcd.LookupAlgorithm(req.Algorithm); err == nil && alg.DefaultMaxEpochs > 0 {
			cfg.MaxEpochs = alg.DefaultMaxEpochs
		}
	}
	if job.Durable && m.ckptDir != "" {
		runID := "job-" + job.ID
		cfg.Checkpoint.Dir = m.ckptDir
		cfg.Checkpoint.Interval = m.ckptIntv
		cfg.Checkpoint.RunID = runID
		if m.ckptSt != nil {
			if _, err := m.ckptSt.Load(runID); err == nil {
				cfg.Checkpoint.Resume = runID // committed state exists: resume it
			}
		}
	}
	opts := []graphabcd.JobOption{graphabcd.WithConfig(cfg)}
	if req.Source != nil {
		opts = append(opts, graphabcd.WithSource(*req.Source))
	}
	if len(req.Seeds) > 0 {
		opts = append(opts, graphabcd.WithSeeds(req.Seeds...))
	}
	if req.Damping != 0 {
		opts = append(opts, graphabcd.WithDamping(req.Damping))
	}
	if req.Cluster != nil {
		opts = append(opts, graphabcd.WithClusterConfig(graphabcd.ClusterConfig{
			Nodes:          req.Cluster.Nodes,
			WorkersPerNode: req.Cluster.WorkersPerNode,
			BlockSize:      req.Cluster.BlockSize,
			// ClusterConfig has no defaults of its own for these two (a zero
			// Epsilon is literal): it runs with what a plain job would get.
			Epsilon:   cfg.Epsilon,
			MaxEpochs: cfg.MaxEpochs,
		}))
	}
	return graphabcd.NewJobSpec(req.Algorithm, g, opts...), nil
}

func (m *Manager) finish(job *Job, state State, res *graphabcd.JobResult, err error) {
	job.mu.Lock()
	job.state = state
	job.finished = m.clock()
	job.result = res
	job.err = err
	job.mu.Unlock()
	close(job.done)
	var term graphabcd.Event
	if err != nil {
		term = graphabcd.Event{Job: job.ID, Type: graphabcd.EventFailed, Err: err.Error()}
	} else if state == StateCancelled {
		term = graphabcd.Event{Job: job.ID, Type: graphabcd.EventFailed, Err: "cancelled"}
	} else {
		term = graphabcd.Event{Job: job.ID, Type: graphabcd.EventDone}
		if res != nil {
			term.Epoch = int(res.Stats.Epochs)
		}
	}
	job.broadcast(term)
	if state == StateDone {
		m.doneJobs.Add(1)
	} else if state == StateFailed {
		m.failedJobs.Add(1)
	}
	m.journalTerminal(job)
}

// journalTerminal records a durable job's terminal state so a restarted
// server does not resubmit it. Deliberately skipped during shutdown: a
// durable job interrupted by shutdown must resume on the next boot.
func (m *Manager) journalTerminal(job *Job) {
	if !job.Durable || m.journal == nil || m.shutdown.Load() {
		return
	}
	job.mu.Lock()
	state := job.state
	job.mu.Unlock()
	if err := m.journal.append(journalRecord{ID: job.ID, State: string(state)}); err != nil {
		m.log.Error("journal terminal append failed", "job", job.ID, "err", err)
	}
}

// Resume resubmits every durable job the journal shows as non-terminal,
// seeding the id sequence past journaled ids. Jobs with committed
// checkpoint state restart from their last committed epoch (buildSpec
// probes the store); the rest start fresh.
func (m *Manager) Resume() (int, error) {
	if m.journal == nil {
		return 0, nil
	}
	pending, maxSeq, err := m.journal.replay()
	if err != nil {
		return 0, err
	}
	for cur := m.seq.Load(); cur < maxSeq; cur = m.seq.Load() {
		if m.seq.CompareAndSwap(cur, maxSeq) {
			break
		}
	}
	n := 0
	for _, rec := range pending {
		req := rec.Request
		req.Durable = true
		if _, err := m.submit(req, rec.Tenant, rec.ID); err != nil {
			m.log.Error("journal resume submit failed", "job", rec.ID, "err", err)
			continue
		}
		m.log.Info("resumed durable job from journal", "job", rec.ID, "algorithm", req.Algorithm, "graph", req.Graph)
		n++
	}
	return n, nil
}

// Close stops accepting jobs, cancels running ones, and waits for the
// workers. Durable jobs in flight are NOT journaled as terminal — that is
// what lets a restarted server resume them.
func (m *Manager) Close() {
	if !m.markClosed() {
		return
	}
	m.shutdown.Store(true)
	m.cancel()
	close(m.queue)
	m.wg.Wait()
	if m.journal != nil {
		m.journal.close()
	}
}

// markClosed flips the closed flag under the lock; false means Close
// already ran.
func (m *Manager) markClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.closed = true
	return true
}
