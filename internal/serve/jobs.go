package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"graphabcd"
	"graphabcd/internal/checkpoint"
	"graphabcd/internal/telemetry"
)

// State is a job's position in the serving lifecycle. A job changes state
// only along an edge of the table below (Manager.to); a cache hit at
// submit goes straight from new to done.
type State string

// Job states. A job is new while only its submitter can reach it.
const (
	stateNew       State = ""
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

// edge is one row of the lifecycle table. cached marks the two edges that
// finish from the result cache; backlog marks the admission that leaves
// the queue slot to the caller (Resume waits for one) instead of refusing
// when the queue is full.
type edge struct {
	from, to State
	cached   bool
	backlog  bool
}

// The lifecycle table: Manager.to takes no other edge.
var (
	admit        = edge{from: stateNew, to: StateQueued}
	readmit      = edge{from: stateNew, to: StateQueued, backlog: true}
	hitAtSubmit  = edge{from: stateNew, to: StateDone, cached: true}
	start        = edge{from: StateQueued, to: StateRunning}
	cancelQueued = edge{from: StateQueued, to: StateCancelled}
	hitOnReprobe = edge{from: StateRunning, to: StateDone, cached: true}
	succeed      = edge{from: StateRunning, to: StateDone}
	fail         = edge{from: StateRunning, to: StateFailed}
	drain        = edge{from: StateRunning, to: StateCancelled}
)

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
	// key is the result-cache key, set by the job's worker once the
	// graph's epoch is pinned; only that goroutine reads it.
	key string

	mu       sync.Mutex
	state    State
	cached   bool
	created  time.Time
	finished time.Time
	result   *graphabcd.JobResult
	err      error
	ctx      context.Context // the run's context, from queued→running on
	cancel   context.CancelFunc
	done     chan struct{}
	events   []graphabcd.Event
	subs     map[chan graphabcd.Event]struct{}
	closed   bool // event stream terminal-delivered and subs closed
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
	Finished  time.Time
	Err       string
	Result    *graphabcd.JobResult
}

// View snapshots the job under its lock.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

func (j *Job) viewLocked() JobView {
	v := JobView{
		ID: j.ID, Tenant: j.Tenant, Algorithm: j.Req.Algorithm, Graph: j.Req.Graph,
		State: j.state, Cached: j.cached, Durable: j.Durable,
		Created: j.created, Finished: j.finished,
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
	o       Options // as defaulted by New: the one copy of the server's settings
	pool    *Pool
	cache   *Cache
	limiter *Limiter
	journal *journal // nil without a checkpoint directory
	ckptSt  *checkpoint.DirStore

	ctx     context.Context // cancelled by Close: shutdown
	cancel  context.CancelFunc
	queue   chan *Job
	wg      sync.WaitGroup // the workers
	feeding sync.WaitGroup // Resume's backlog feeder
	seq     atomic.Int64

	mu     sync.Mutex
	jobs   map[string]*Job
	closed bool

	doneJobs   atomic.Int64
	failedJobs atomic.Int64
}

// newManager opens the journal and starts the workers. o must already
// carry New's defaults.
func newManager(o Options, health *telemetry.Health) (*Manager, error) {
	m := &Manager{
		o:       o,
		pool:    NewPool(o.GraphDir, o.MemoryBudget, health),
		cache:   NewCache(o.CacheEntries),
		limiter: NewLimiter(o.TenantRate, o.TenantBurst, o.Clock),
		queue:   make(chan *Job, o.QueueDepth),
		jobs:    make(map[string]*Job),
	}
	if o.CheckpointDir != "" {
		var err error
		if m.journal, err = openJournal(o.CheckpointDir); err != nil {
			return nil, err
		}
		if st, err := checkpoint.NewDirStore(o.CheckpointDir); err == nil {
			m.ckptSt = st
		}
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	for i := 0; i < o.MaxRunning; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// to takes job along e and runs the edge's side effects in one fixed
// order:
//
//  1. what must happen before anyone can see the job at e.to: the
//     durable submission record, the clean result's cache entry;
//  2. the state write, under job.mu;
//  3. the wake-up: the job joins the table (and, on admit, the queue),
//     or done closes, the one terminal event goes out and the SSE
//     subscriptions close;
//  4. the counters, then the durable terminal record — skipped only when
//     shutdown cancels the job, so the next server resumes it.
//
// It reports false and changes nothing when the job is not at e.from
// (a DELETE after done, a second terminal transition). Admit also
// reports false when the queue is full or the manager closed; the job
// is then dropped, its durable records closed. The view is the job as
// the edge left it.
func (m *Manager) to(job *Job, e edge, res *graphabcd.JobResult, err error) (JobView, bool) {
	// Whether shutdown cancels the job is decided as the edge is taken.
	shutdownCancel := e.to == StateCancelled && m.ctx.Err() != nil
	v, release, ok := func() (JobView, context.CancelFunc, bool) {
		job.mu.Lock()
		defer job.mu.Unlock()
		if job.state != e.from {
			return JobView{}, nil, false
		}
		if e.to == StateQueued && job.Durable { // a new job has no readers to block
			m.journalAppend(journalRecord{ID: job.ID, Tenant: job.Tenant, Request: job.Req})
		}
		if e == succeed {
			m.cache.Put(job.key, res)
		}

		job.state, job.cached, job.result, job.err = e.to, e.cached, res, err
		if e == start {
			job.ctx, job.cancel = context.WithCancel(m.ctx)
		}
		if e.to.Terminal() {
			job.finished = m.o.Clock()
		}
		return job.viewLocked(), job.cancel, true
	}()
	if !ok {
		return JobView{}, false
	}

	switch {
	case e == admit:
		if !m.enqueue(job) {
			if job.Durable {
				m.journalAppend(journalRecord{ID: job.ID, State: string(StateFailed)})
			}
			return JobView{}, false
		}
	case e.from == stateNew:
		m.register(job)
	}
	if e.to.Terminal() {
		close(job.done)
		term := graphabcd.Event{Job: job.ID, Type: graphabcd.EventDone}
		switch {
		case err != nil:
			term = graphabcd.Event{Job: job.ID, Type: graphabcd.EventFailed, Err: err.Error()}
		case e.to == StateCancelled:
			term = graphabcd.Event{Job: job.ID, Type: graphabcd.EventFailed, Err: "cancelled"}
		case res != nil:
			term.Epoch = int(res.Stats.Epochs)
		}
		job.broadcast(term)
		if release != nil {
			release()
		}
	}

	switch e.to {
	case StateDone:
		m.doneJobs.Add(1)
	case StateFailed:
		m.failedJobs.Add(1)
	}
	if job.Durable && e.to.Terminal() && e.from != stateNew && !shutdownCancel {
		m.journalAppend(journalRecord{ID: job.ID, State: string(e.to)})
	}
	return v, true
}

// journalAppend logs a failed append: the job runs either way, but may
// not survive a restart (or may run again after one).
func (m *Manager) journalAppend(rec journalRecord) {
	if err := m.journal.append(rec); err != nil {
		m.o.Log.Error("journal append failed", "job", rec.ID, "err", err)
	}
}

// Submit admits, registers, and enqueues one job, returning the job and
// the view its edge produced: done for a cache hit, queued otherwise. The
// error, when non-nil, wraps one of the graphabcd sentinels: ErrOverloaded
// (rate limit or full queue), ErrUnknownAlgorithm, or ErrGraphNotFound.
func (m *Manager) Submit(req *JobRequest, tenant string) (*Job, JobView, error) {
	if !m.limiter.Allow(tenant) {
		return nil, JobView{}, errRateLimited
	}
	job, err := m.newJob(req, tenant, "")
	if err != nil {
		return nil, JobView{}, err
	}
	// A warm cache hit never touches the queue.
	if epoch, ok := m.pool.Resident(req.Graph); ok {
		if res, ok := m.cache.Get(cacheKey(req.Graph, epoch, req.Algorithm, canonicalParams(req))); ok {
			v, _ := m.to(job, hitAtSubmit, res, nil)
			return job, v, nil
		}
	}
	v, ok := m.to(job, admit, nil, nil)
	if !ok {
		return nil, JobView{}, errQueueFull
	}
	return job, v, nil
}

// newJob validates req and builds a new job; id "" draws the next one.
func (m *Manager) newJob(req *JobRequest, tenant, id string) (*Job, error) {
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
	if req.Durable && m.journal == nil {
		return nil, fmt.Errorf("serve: durable jobs need a checkpoint directory; start the server with -ckpt-dir")
	}
	if id == "" {
		id = fmt.Sprintf("j-%d", m.seq.Add(1))
	}
	return &Job{
		ID: id, Tenant: tenant, Durable: req.Durable, Req: req,
		created: m.o.Clock(), done: make(chan struct{}),
	}, nil
}

// enqueue registers job and reserves a queue slot under one lock, so a
// concurrent Close cannot close the queue between the check and the send;
// the send never blocks (default arm), so holding m.mu across it is safe.
func (m *Manager) enqueue(job *Job) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	select {
	case m.queue <- job:
	default:
		return false
	}
	m.jobs[job.ID] = job
	return true
}

func (m *Manager) register(job *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs[job.ID] = job
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
// cancelled state with its partial result. The view is the job after the
// request.
func (m *Manager) Cancel(id string) (JobView, bool) {
	j, ok := m.Get(id)
	if !ok {
		return JobView{}, false
	}
	if v, ok := m.to(j, cancelQueued, nil, nil); ok {
		return v, true
	}
	j.mu.Lock()
	stop := j.cancel // nil until the job starts
	j.mu.Unlock()
	if stop != nil {
		stop()
	}
	return j.View(), true
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

func (m *Manager) run(job *Job) {
	if m.ctx.Err() != nil { // shutdown drain: don't load graphs or start engines
		m.to(job, cancelQueued, nil, nil)
		return
	}
	if _, ok := m.to(job, start, nil, nil); !ok {
		return // cancelled while queued
	}

	g, epoch, release, err := m.pool.Acquire(job.Req.Graph)
	if err != nil {
		m.to(job, fail, nil, err)
		return
	}
	defer release()

	// Re-probe the cache now that the graph (and its epoch) is resident:
	// an identical job may have completed while this one sat queued.
	job.key = cacheKey(job.Req.Graph, epoch, job.Req.Algorithm, canonicalParams(job.Req))
	if res, ok := m.cache.Get(job.key); ok {
		m.to(job, hitOnReprobe, res, nil)
		return
	}

	h, err := m.o.Runtime.Run(job.ctx, m.buildSpec(job, g))
	if err != nil {
		m.to(job, fail, nil, err)
		return
	}
	for ev := range h.Events() {
		if ev.Type == graphabcd.EventEpoch {
			ev.Job = job.ID
			job.broadcast(ev)
		}
	}
	res, err := h.Result()

	// The job's context ends on a DELETE and on shutdown alike; a drained
	// partial result must neither read as done nor be cached.
	switch {
	case err != nil:
		m.to(job, fail, nil, err)
	case job.ctx.Err() != nil:
		m.to(job, drain, res, nil)
	default:
		m.to(job, succeed, res, nil)
	}
}

// buildSpec assembles the JobSpec: server-wide engine defaults, then the
// request's overrides, then checkpoint wiring for durable jobs. What the
// spec still leaves unset (block size, the per-algorithm epoch budget)
// Runtime.Run resolves.
func (m *Manager) buildSpec(job *Job, g *graphabcd.Graph) graphabcd.JobSpec {
	req := job.Req
	cfg := *m.o.EngineDefaults
	cfg.Telemetry = nil // per-job registries only; a shared one would mix runs
	if req.BlockSize > 0 {
		cfg.BlockSize = req.BlockSize
	}
	if req.Epsilon != nil {
		cfg.Epsilon = *req.Epsilon
	}
	if req.MaxEpochs > 0 {
		cfg.MaxEpochs = req.MaxEpochs
	}
	if job.Durable {
		runID := "job-" + job.ID
		cfg.Checkpoint.Dir = m.o.CheckpointDir
		cfg.Checkpoint.Interval = m.o.CheckpointInterval
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
			// A zero Epsilon is literal in ClusterConfig: a cluster job runs
			// with what a plain job would get.
			Epsilon:   cfg.Epsilon,
			MaxEpochs: cfg.MaxEpochs,
		}))
	}
	return graphabcd.NewJobSpec(req.Algorithm, g, opts...)
}

// Resume re-admits every durable job the journal shows as non-terminal,
// under its original id, seeding the id sequence past journaled ids. Jobs
// with committed checkpoint state restart from their last committed epoch
// (buildSpec probes the store); the rest start fresh.
//
// The journal may hold more jobs than the queue: every re-admitted job is
// in the table (queued) on return, and one goroutine hands them to the
// queue in journal order, waiting for each slot. At shutdown it stops
// waiting, and a job it never handed over takes the shutdown cancel edge,
// which leaves it in the journal for the next server.
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
	var backlog []*Job
	for _, rec := range pending {
		req := rec.Request
		req.Durable = true
		job, err := m.newJob(req, rec.Tenant, rec.ID)
		if err != nil {
			m.o.Log.Error("journal resume submit failed", "job", rec.ID, "err", err)
			continue
		}
		m.to(job, readmit, nil, nil)
		m.o.Log.Info("resumed durable job from journal", "job", rec.ID, "algorithm", req.Algorithm, "graph", req.Graph)
		backlog = append(backlog, job)
	}
	m.feeding.Add(1)
	go func() {
		defer m.feeding.Done()
		for i, job := range backlog {
			select {
			case m.queue <- job:
			case <-m.ctx.Done():
				for _, left := range backlog[i:] {
					m.to(left, cancelQueued, nil, nil)
				}
				return
			}
		}
	}()
	return len(backlog), nil
}

// Close stops accepting jobs, cancels running ones, and waits for the
// workers. Durable jobs in flight are NOT journaled as terminal — that is
// what lets a restarted server resume them.
func (m *Manager) Close() {
	m.mu.Lock()
	closed := m.closed
	m.closed = true
	m.mu.Unlock()
	if closed {
		return
	}
	m.cancel()
	m.feeding.Wait() // the feeder sends outside m.mu: it must be gone before the queue closes
	close(m.queue)
	m.wg.Wait()
	if m.journal != nil {
		m.journal.close()
	}
}
