package graphabcd

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"graphabcd/internal/graph"
	"graphabcd/internal/telemetry"
)

// JobSpec describes one analytics job: which algorithm, over which graph,
// under which engine configuration. Build one with NewJobSpec and the
// WithXxx functional options; the zero value is not runnable.
//
// A JobSpec is the unit both front ends share: the CLI builds one from
// flags, the HTTP serving layer (internal/serve) builds one from a JSON
// request, and both hand it to a Runtime.
type JobSpec struct {
	// Algorithm names a registered AlgorithmSpec ("pagerank", "sssp",
	// "ppr", ... — see Algorithms). Aliases such as "pr" resolve too.
	Algorithm string
	// Graph is the graph to run over.
	Graph *Graph
	// Config is the engine configuration. A zero BlockSize — here or in
	// Cluster — is defaulted to the |V|/256 heuristic; the rest is validated by Config.Validate
	// at the Runtime boundary, before any goroutine starts.
	Config Config
	// Cluster, when non-nil, runs the job on the in-process distributed
	// engine across Cluster.Nodes nodes instead of the single-node
	// engine. Validated once at the Runtime boundary, before any node
	// goroutine starts.
	Cluster *ClusterConfig

	// Source is the source vertex for traversal algorithms (sssp, bfs).
	// HasSource distinguishes an explicit source 0 from an unset one.
	Source    uint32
	HasSource bool
	// Seeds is the personalization set for seeded algorithms (ppr).
	Seeds []uint32
	// Damping overrides the damping factor for pagerank/ppr variants;
	// 0 means the algorithm default (0.85).
	Damping float64
	// CF, when non-nil, overrides the collaborative-filtering
	// hyperparameters.
	CF *CF
	// Schedule, when non-nil, deterministically replays a recorded block
	// schedule (core.ReplaySchedule) instead of running live; the
	// residual trace lands in JobResult.Residuals.
	Schedule []uint32

	configSet bool
}

// JobOption configures a JobSpec, in the functional-option style of
// Load/Save's WithFormat.
type JobOption func(*JobSpec)

// WithConfig sets the engine configuration (replacing the default one).
func WithConfig(cfg Config) JobOption {
	return func(s *JobSpec) { s.Config = cfg; s.configSet = true }
}

// WithSource sets the source vertex for traversal algorithms.
func WithSource(v uint32) JobOption {
	return func(s *JobSpec) { s.Source = v; s.HasSource = true }
}

// WithSeeds sets the personalization seed set for seeded algorithms.
func WithSeeds(seeds ...uint32) JobOption {
	return func(s *JobSpec) { s.Seeds = append([]uint32(nil), seeds...) }
}

// WithDamping overrides the damping factor for pagerank/ppr.
func WithDamping(d float64) JobOption {
	return func(s *JobSpec) { s.Damping = d }
}

// WithClusterConfig runs the job on the in-process distributed engine.
func WithClusterConfig(cfg ClusterConfig) JobOption {
	return func(s *JobSpec) { c := cfg; s.Cluster = &c }
}

// WithCFParams overrides the collaborative-filtering hyperparameters.
func WithCFParams(p CF) JobOption {
	return func(s *JobSpec) { c := p; s.CF = &c }
}

// WithSchedule replays a recorded block schedule deterministically.
func WithSchedule(schedule []uint32) JobOption {
	return func(s *JobSpec) { s.Schedule = schedule }
}

// NewJobSpec assembles a JobSpec for algorithm over g. Without
// WithConfig the spec runs under DefaultConfig with the |V|/256 block
// heuristic.
func NewJobSpec(algorithm string, g *Graph, opts ...JobOption) JobSpec {
	s := JobSpec{Algorithm: algorithm, Graph: g}
	for _, o := range opts {
		o(&s)
	}
	return s
}

// JobResult is the type-erased result of one job. Exactly one of Float /
// Uint / Vectors is populated, matching the algorithm's value kind
// (AlgorithmSpec.Values).
type JobResult struct {
	// Algorithm is the canonical (non-alias) algorithm name.
	Algorithm string
	// Float holds float64-valued results (pagerank, ppr, sssp, ...).
	Float []float64
	// Uint holds uint64-valued results (bfs, cc, labelprop, kcore).
	Uint []uint64
	// Vectors holds vector-valued results (cf factors).
	Vectors [][]float32
	// Residuals is the per-epoch residual trace of a schedule replay
	// (JobSpec.Schedule); nil for live runs.
	Residuals []float64
	// Stats summarizes the run.
	Stats Stats
	// Cluster carries the distributed-run statistics when the job ran
	// under WithClusterConfig; nil otherwise.
	Cluster *ClusterStats
}

// EventType classifies a runtime Event.
type EventType string

// Event types emitted by Runtime and Handle event streams.
const (
	// EventEpoch reports convergence progress: one more epoch-equivalent
	// of vertex updates completed.
	EventEpoch EventType = "epoch"
	// EventDone reports successful completion.
	EventDone EventType = "done"
	// EventFailed reports completion with an error.
	EventFailed EventType = "failed"
)

// Event is one observation from a running job: convergence progress or
// terminal state. The serving layer streams these over SSE.
type Event struct {
	// Job is the job id the event belongs to.
	Job string
	// Type classifies the event.
	Type EventType
	// Epoch is the completed epoch count (EventEpoch, EventDone).
	Epoch int
	// Residual is the pending gradient mass at the event (EventEpoch).
	Residual float64
	// ActiveBlocks is the active-list size at the event (EventEpoch).
	ActiveBlocks int
	// Err carries the failure message (EventFailed).
	Err string
}

// Runtime executes JobSpecs. It is the one execution surface the CLI
// and the HTTP serving layer share:
// Run validates the spec once (algorithm lookup, graph presence, core
// and cluster Config.Validate) before any goroutine starts, dispatches
// through the algorithm registry, and returns a Handle the caller polls,
// waits on, or streams events from. Events is the merged event stream of
// every job started on the runtime; per-job streams hang off the Handle.
type Runtime interface {
	Run(ctx context.Context, spec JobSpec) (*Handle, error)
	Events() <-chan Event
}

// Handle tracks one running job.
type Handle struct {
	id     string
	algo   string
	cancel context.CancelFunc
	done   chan struct{}
	events chan Event

	mu  sync.Mutex
	res *JobResult
	err error
}

// ID returns the job id ("job-<n>" unless the runtime assigned one).
func (h *Handle) ID() string { return h.id }

// Algorithm returns the canonical algorithm name the job resolved to.
func (h *Handle) Algorithm() string { return h.algo }

// Done is closed when the job reaches a terminal state.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Events returns the job's event stream. The channel is closed after the
// terminal EventDone/EventFailed. Slow consumers lose intermediate
// EventEpoch events (the stream never blocks the engine); terminal
// events are always delivered.
func (h *Handle) Events() <-chan Event { return h.events }

// Cancel stops the job; the engine drains gracefully and the partial
// result is returned with Stats.Converged == false.
func (h *Handle) Cancel() { h.cancel() }

// Result returns the job's result once Done is closed; before that it
// returns nil and no error.
func (h *Handle) Result() (*JobResult, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.res, h.err
}

// Wait blocks until the job completes or ctx is cancelled. Cancelling
// ctx does not cancel the job itself — use Cancel for that.
func (h *Handle) Wait(ctx context.Context) (*JobResult, error) {
	select {
	case <-h.done:
		return h.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (h *Handle) finish(res *JobResult, err error) {
	h.mu.Lock()
	h.res, h.err = res, err
	h.mu.Unlock()
	close(h.done)
}

// localRuntime is the in-process Runtime over the algorithm registry.
type localRuntime struct {
	seq    atomic.Int64
	events chan Event
}

// NewRuntime returns the in-process Runtime: jobs run on this process's
// engines (single-node, or the in-process cluster engine under
// WithClusterConfig).
func NewRuntime() Runtime {
	return &localRuntime{events: make(chan Event, 256)}
}

// Events implements Runtime. The merged stream is never closed and drops
// EventEpoch entries rather than block a job; terminal events may also
// be dropped if nothing drains the channel — per-job Handle streams are
// the lossless-terminal surface.
func (r *localRuntime) Events() <-chan Event { return r.events }

func (r *localRuntime) publish(ev Event) {
	select {
	case r.events <- ev:
	default:
	}
}

// Run implements Runtime. The spec is validated synchronously — an
// unknown algorithm, a missing graph, an out-of-range source or seed,
// or an invalid core/cluster Config is reported here, before any
// goroutine starts. The returned Handle's job is already running.
func (r *localRuntime) Run(ctx context.Context, spec JobSpec) (*Handle, error) {
	alg, err := LookupAlgorithm(spec.Algorithm)
	if err != nil {
		return nil, err
	}
	spec.Algorithm = alg.Name // canonicalize aliases for results and logs
	bs := 0
	if spec.Graph != nil {
		bs = graph.DefaultBlockSize(spec.Graph.NumVertices())
	}
	if !spec.configSet {
		spec.Config = DefaultConfig(bs)
	}
	if spec.Config.BlockSize == 0 {
		spec.Config.BlockSize = bs
	}
	if spec.Cluster != nil && spec.Cluster.BlockSize == 0 {
		// Left at 0 the cluster would cut one |V|-sized block and clamp
		// itself to a single node.
		c := *spec.Cluster
		c.BlockSize = bs
		spec.Cluster = &c
	}
	if err := validateSpec(alg, &spec); err != nil {
		return nil, err
	}

	id := fmt.Sprintf("job-%d", r.seq.Add(1))
	jctx, cancel := context.WithCancel(ctx)
	h := &Handle{
		id:     id,
		algo:   alg.Name,
		cancel: cancel,
		done:   make(chan struct{}),
		events: make(chan Event, 64),
	}

	// Progress events ride the engine's epoch hook: the scheduler calls
	// it once per |V| vertex updates, and the hook samples the job's
	// telemetry registry for the residual/active-list convergence pair.
	// Setting OnEpoch also makes the engine record the convergence
	// series, so the registry always has a fresh sample here.
	reg := spec.Config.Telemetry
	if reg == nil {
		reg = telemetry.New(telemetry.Options{})
		spec.Config.Telemetry = reg
	}
	prevOnEpoch := spec.Config.OnEpoch
	spec.Config.OnEpoch = func(epoch int) {
		if prevOnEpoch != nil {
			prevOnEpoch(epoch)
		}
		snap := reg.Snapshot()
		ev := Event{
			Job:          id,
			Type:         EventEpoch,
			Epoch:        epoch,
			Residual:     snap.Residual,
			ActiveBlocks: snap.ActiveBlocks,
		}
		select {
		case h.events <- ev:
		default: // slow consumer: drop progress, never block the scheduler
		}
		r.publish(ev)
	}

	go func() {
		defer cancel()
		var (
			res *JobResult
			err error
		)
		if spec.Cluster != nil {
			res, err = alg.runDist(jctx, &spec)
		} else {
			res, err = alg.run(jctx, &spec)
		}
		var term Event
		if err != nil {
			term = Event{Job: id, Type: EventFailed, Err: err.Error()}
		} else {
			term = Event{Job: id, Type: EventDone, Epoch: int(res.Stats.Epochs)}
		}
		h.finish(res, err)
		// The terminal event is always delivered: the engine has joined
		// its goroutines so no epoch event can race this send, and if an
		// absent consumer let the buffer fill, stale progress events are
		// dropped to make room rather than blocking the job goroutine.
		for delivered := false; !delivered; {
			select {
			case h.events <- term:
				delivered = true
			default:
				select {
				case <-h.events:
				default:
				}
			}
		}
		close(h.events)
		r.publish(term)
	}()
	return h, nil
}

// validateSpec is the Runtime boundary's one-stop validation: algorithm
// requirements, graph presence, parameter ranges, and both Config
// layers. Everything downstream may assume a well-formed spec.
func validateSpec(alg *AlgorithmSpec, spec *JobSpec) error {
	if spec.Graph == nil {
		return fmt.Errorf("graphabcd: %s: JobSpec.Graph is nil; load or build a graph first", alg.Name)
	}
	n := spec.Graph.NumVertices()
	if alg.NeedsSource && !spec.HasSource {
		return fmt.Errorf("graphabcd: %s requires a source vertex; add WithSource", alg.Name)
	}
	if spec.HasSource && int(spec.Source) >= n {
		return fmt.Errorf("graphabcd: source vertex %d outside graph with %d vertices", spec.Source, n)
	}
	if alg.NeedsSeeds && len(spec.Seeds) == 0 {
		return fmt.Errorf("graphabcd: %s requires seed vertices; add WithSeeds", alg.Name)
	}
	for _, s := range spec.Seeds {
		if int(s) >= n {
			return fmt.Errorf("graphabcd: seed vertex %d outside graph with %d vertices", s, n)
		}
	}
	if spec.Damping < 0 || spec.Damping >= 1 {
		return fmt.Errorf("graphabcd: damping %g outside [0, 1); 0 means the 0.85 default", spec.Damping)
	}
	if spec.Schedule != nil && spec.Cluster != nil {
		return fmt.Errorf("graphabcd: schedule replay is single-process only; drop WithClusterConfig")
	}
	if spec.Cluster != nil {
		if !alg.Distributed {
			return fmt.Errorf("graphabcd: %s does not support distributed execution (pick pagerank, sssp, bfs, or cc)", alg.Name)
		}
		if err := spec.Cluster.Validate(); err != nil {
			return err
		}
		return nil
	}
	return spec.Config.Validate()
}
