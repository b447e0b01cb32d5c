package graphabcd

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"graphabcd/internal/bcd"
	"graphabcd/internal/cluster"
	"graphabcd/internal/core"
)

// ValueKind identifies which JobResult value array an algorithm fills.
type ValueKind int

// Value kinds.
const (
	// FloatValues populates JobResult.Float.
	FloatValues ValueKind = iota
	// UintValues populates JobResult.Uint.
	UintValues
	// VectorValues populates JobResult.Vectors.
	VectorValues
)

// String names the kind for API discovery documents.
func (k ValueKind) String() string {
	switch k {
	case FloatValues:
		return "float64"
	case UintValues:
		return "uint64"
	case VectorValues:
		return "[]float32"
	}
	return fmt.Sprintf("valuekind(%d)", int(k))
}

// ParamSpec documents one algorithm parameter for API discovery
// (GET /v1/algorithms in the serving layer).
type ParamSpec struct {
	// Name is the JSON/query parameter name.
	Name string `json:"name"`
	// Type is the parameter's JSON type ("integer", "number", "[]integer").
	Type string `json:"type"`
	// Required marks parameters without which the job is rejected.
	Required bool `json:"required"`
	// Doc is a one-line description.
	Doc string `json:"doc"`
}

// AlgorithmSpec is one registry entry: the canonical name, what the
// algorithm needs from a JobSpec, and the type-erased program factories
// the Runtime dispatches through. The CLI's -algo flag and the HTTP
// layer's "algorithm" field both resolve here.
type AlgorithmSpec struct {
	// Name is the canonical algorithm name.
	Name string
	// Aliases are accepted alternate spellings ("pr" for "pagerank").
	Aliases []string
	// Description is a one-line summary for listings.
	Description string
	// Values is the result value kind.
	Values ValueKind
	// NeedsSource marks algorithms requiring WithSource (sssp, bfs).
	NeedsSource bool
	// NeedsSeeds marks algorithms requiring WithSeeds (ppr).
	NeedsSeeds bool
	// Distributed marks algorithms runnable under WithClusterConfig.
	Distributed bool
	// DefaultMaxEpochs is the epoch budget the serving layer applies when
	// the request sets none — non-convergent workloads (labelprop, cf)
	// must be bounded to be servable. 0 means run to convergence.
	DefaultMaxEpochs float64
	// Params documents the algorithm-specific parameters.
	Params []ParamSpec

	run     func(ctx context.Context, spec *JobSpec) (*JobResult, error)
	runDist func(ctx context.Context, spec *JobSpec) (*JobResult, error)
}

var (
	paramSource = ParamSpec{Name: "source", Type: "integer", Required: true, Doc: "source vertex id"}
	paramSeeds  = ParamSpec{Name: "seeds", Type: "[]integer", Required: true, Doc: "personalization seed vertex ids"}
	paramDamp   = ParamSpec{Name: "damping", Type: "number", Doc: "damping factor in [0,1); 0 means 0.85"}
)

// registry maps canonical names AND aliases to specs. Built once at
// package init; read-only afterwards, so lookups need no lock.
var registry = buildRegistry()

func buildRegistry() map[string]*AlgorithmSpec {
	specs := []*AlgorithmSpec{
		{
			Name: "pagerank", Aliases: []string{"pr"},
			Description: "damped PageRank over the whole graph",
			Values:      FloatValues, Distributed: true,
			Params: []ParamSpec{paramDamp},
			run: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
				return runFloat(ctx, spec, bcd.PageRank{Damping: spec.Damping})
			},
			runDist: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
				return runDistFloat(ctx, spec, bcd.PageRank{Damping: spec.Damping})
			},
		},
		{
			Name:        "ppr",
			Description: "personalized PageRank from a seed set",
			Values:      FloatValues, NeedsSeeds: true,
			Params: []ParamSpec{paramSeeds, paramDamp},
			run: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
				prog, err := bcd.NewPPR(spec.Damping, spec.Seeds)
				if err != nil {
					return nil, err
				}
				return runFloat(ctx, spec, prog)
			},
		},
		{
			Name: "pagerank-delta", Aliases: []string{"prdelta"},
			Description: "operation-based PageRank (atomic delta accumulation)",
			Values:      FloatValues,
			Params:      []ParamSpec{paramDamp},
			run: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
				return runFloat(ctx, spec, bcd.PageRankDelta{Damping: spec.Damping})
			},
		},
		{
			Name:        "sssp",
			Description: "single-source shortest path (weighted relaxation)",
			Values:      FloatValues, NeedsSource: true, Distributed: true,
			Params: []ParamSpec{paramSource},
			run: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
				return runFloat(ctx, spec, bcd.SSSP{Source: spec.Source})
			},
			runDist: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
				return runDistFloat(ctx, spec, bcd.SSSP{Source: spec.Source})
			},
		},
		{
			Name:        "bfs",
			Description: "breadth-first levels from a source",
			Values:      UintValues, NeedsSource: true, Distributed: true,
			Params: []ParamSpec{paramSource},
			run: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
				return runUint[uint64](ctx, spec, bcd.BFS{Source: spec.Source})
			},
			runDist: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
				return runDistUint[uint64](ctx, spec, bcd.BFS{Source: spec.Source})
			},
		},
		{
			Name:        "cc",
			Description: "connected components by min-label propagation",
			Values:      UintValues, Distributed: true,
			run: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
				return runUint[uint64](ctx, spec, bcd.CC{})
			},
			runDist: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
				return runDistUint[uint64](ctx, spec, bcd.CC{})
			},
		},
		{
			Name: "labelprop", Aliases: []string{"lp"},
			Description: "weighted majority label propagation",
			Values:      UintValues, DefaultMaxEpochs: 50,
			run: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
				return runUint[bcd.LPAccum](ctx, spec, bcd.LabelProp{})
			},
		},
		{
			Name:        "kcore",
			Description: "coreness by the monotone h-index fixpoint (symmetric graphs)",
			Values:      UintValues,
			run: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
				return runUint[bcd.KCoreAccum](ctx, spec, bcd.KCore{})
			},
		},
		{
			Name:        "cf",
			Description: "collaborative filtering by low-rank factorization",
			Values:      VectorValues, DefaultMaxEpochs: 20,
			Params: []ParamSpec{
				{Name: "rank", Type: "integer", Doc: "factor dimension (default 8)"},
			},
			run: func(ctx context.Context, spec *JobSpec) (*JobResult, error) {
				params := bcd.CF{Rank: 8, LearnRate: 0.3, Lambda: 0.01, Seed: 7}
				if spec.CF != nil {
					params = *spec.CF
				}
				res, err := runCoreOrReplay[[]float32, []float64](ctx, spec, params)
				if err != nil {
					return nil, err
				}
				out := &JobResult{Algorithm: "cf", Vectors: res.Values, Stats: res.Stats}
				out.Residuals = res.Residuals
				return out, nil
			},
		},
	}
	m := make(map[string]*AlgorithmSpec, 2*len(specs))
	for _, s := range specs {
		m[s.Name] = s
		for _, a := range s.Aliases {
			m[a] = s
		}
	}
	return m
}

// LookupAlgorithm resolves a name or alias to its registry entry,
// wrapping ErrUnknownAlgorithm (use errors.Is) when nothing matches.
func LookupAlgorithm(name string) (*AlgorithmSpec, error) {
	if s, ok := registry[strings.ToLower(strings.TrimSpace(name))]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("%w: %q (known: %s)", ErrUnknownAlgorithm, name, strings.Join(algorithmNames(), ", "))
}

// Algorithms lists every registered algorithm, sorted by canonical name.
func Algorithms() []*AlgorithmSpec {
	seen := make(map[string]bool, len(registry))
	out := make([]*AlgorithmSpec, 0, len(registry))
	for _, s := range registry {
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func algorithmNames() []string {
	specs := Algorithms()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// replayResult pairs a core result with the replay residual trace.
type coreRun[V any] struct {
	Values    []V
	Stats     Stats
	Residuals []float64
}

// runCoreOrReplay executes one single-node run: live through
// core.RunContext, or a deterministic replay when the spec carries a
// recorded schedule.
func runCoreOrReplay[V, M any](ctx context.Context, spec *JobSpec, prog bcd.Program[V, M]) (*coreRun[V], error) {
	if spec.Schedule == nil {
		res, err := core.RunContext[V, M](ctx, spec.Graph, prog, spec.Config)
		if err != nil {
			return nil, err
		}
		return &coreRun[V]{Values: res.Values, Stats: res.Stats}, nil
	}
	rr, err := core.ReplaySchedule[V, M](ctx, spec.Graph, prog, spec.Config, spec.Schedule)
	if err != nil {
		return nil, err
	}
	return &coreRun[V]{Values: rr.Result.Values, Stats: rr.Result.Stats, Residuals: rr.Residuals}, nil
}

func runFloat[M any](ctx context.Context, spec *JobSpec, prog bcd.Program[float64, M]) (*JobResult, error) {
	res, err := runCoreOrReplay[float64, M](ctx, spec, prog)
	if err != nil {
		return nil, err
	}
	return &JobResult{Algorithm: spec.Algorithm, Float: res.Values, Stats: res.Stats, Residuals: res.Residuals}, nil
}

func runUint[M any](ctx context.Context, spec *JobSpec, prog bcd.Program[uint64, M]) (*JobResult, error) {
	res, err := runCoreOrReplay[uint64, M](ctx, spec, prog)
	if err != nil {
		return nil, err
	}
	return &JobResult{Algorithm: spec.Algorithm, Uint: res.Values, Stats: res.Stats, Residuals: res.Residuals}, nil
}

func runDistFloat[M any](ctx context.Context, spec *JobSpec, prog bcd.Program[float64, M]) (*JobResult, error) {
	res, err := cluster.Run[float64, M](ctx, spec.Graph, prog, *spec.Cluster)
	if err != nil {
		return nil, err
	}
	cs := res.Stats
	return &JobResult{Algorithm: spec.Algorithm, Float: res.Values, Stats: cs.Stats, Cluster: &cs}, nil
}

func runDistUint[M any](ctx context.Context, spec *JobSpec, prog bcd.Program[uint64, M]) (*JobResult, error) {
	res, err := cluster.Run[uint64, M](ctx, spec.Graph, prog, *spec.Cluster)
	if err != nil {
		return nil, err
	}
	cs := res.Stats
	return &JobResult{Algorithm: spec.Algorithm, Uint: res.Values, Stats: cs.Stats, Cluster: &cs}, nil
}
