// Package graphabcd is a Go implementation of GraphABCD ("Scaling Out
// Graph Analytics with Asynchronous Block Coordinate Descent", Yang et
// al., ISCA 2020): an asynchronous, barrierless, lock-free graph analytics
// framework built on the Block Coordinate Descent view of iterative graph
// algorithms.
//
// The package is a thin facade over the implementation packages. A
// typical use:
//
//	g, _ := graphabcd.NewGraph(4, []graphabcd.Edge{{Src: 0, Dst: 1, Weight: 1}, ...})
//	job, _ := graphabcd.NewRuntime().Run(ctx, graphabcd.NewJobSpec("pagerank", g))
//	res, _ := job.Wait(ctx)
//	fmt.Println(res.Float[0], res.Stats.Epochs)
//
// Key knobs (Sec. III-B of the paper): Config.BlockSize trades convergence
// rate against scheduling overhead, Config.Policy selects cyclic or
// Gauss-Southwell priority block selection, and Config.Mode switches
// between the asynchronous engine and the Barrier/BSP baselines. Attach a
// Simulator to model the paper's HARPv2 CPU-FPGA platform (bus traffic,
// PE utilization, simulated makespan) alongside the real computation.
package graphabcd

import (
	"context"
	"io"

	"graphabcd/internal/accel"
	"graphabcd/internal/bcd"
	"graphabcd/internal/cluster"
	"graphabcd/internal/core"
	"graphabcd/internal/edgestore"
	"graphabcd/internal/gen"
	"graphabcd/internal/graph"
	"graphabcd/internal/sched"
	"graphabcd/internal/word"
)

// Graph is the dual CSC/CSR pull-push graph representation.
type Graph = graph.Graph

// Edge is a directed weighted input edge.
type Edge = graph.Edge

// NewGraph builds a Graph over vertices [0, n) from an edge list.
func NewGraph(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

// GraphBuilder incrementally assembles a graph from concurrent producers:
// create one shard per producing goroutine, Add edges, then Build. The
// construction is the parallel counting sort described in DESIGN.md §10.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder over vertices [0, n); a negative n
// auto-sizes the graph to 1 + the maximum vertex id added.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// Format identifies an on-disk graph encoding for Load and Save.
type Format = graph.Format

// Graph file formats.
const (
	// FormatAuto detects the format: by magic bytes on load, by
	// extension on save (".gabs" plain snapshot, ".gabz" compressed
	// snapshot, anything else the text edge list).
	FormatAuto = graph.FormatAuto
	// FormatText is the "src dst [weight]" edge-list text format.
	FormatText = graph.FormatText
	// FormatSnapshot is the binary snapshot of the dual CSC/CSR layout:
	// built once, reloaded in O(m) without re-sorting, and usable
	// directly as an out-of-core edge store (OpenSnapshotEdges).
	FormatSnapshot = graph.FormatSnapshot
	// FormatSnapshotCompressed is the snapshot with delta-varint
	// compressed sections; smaller, but not preadable as an edge store.
	FormatSnapshotCompressed = graph.FormatSnapshotCompressed
)

// LoadOption configures Load.
type LoadOption interface{ applyLoad(*fileOptions) }

// SaveOption configures Save.
type SaveOption interface{ applySave(*fileOptions) }

type fileOptions struct{ format Format }

// FormatOption forces a specific file format; it satisfies both
// LoadOption and SaveOption.
type FormatOption struct{ format Format }

func (o FormatOption) applyLoad(c *fileOptions) { c.format = o.format }
func (o FormatOption) applySave(c *fileOptions) { c.format = o.format }

// WithFormat overrides format auto-detection for Load or Save — e.g.
// saving a snapshot to a path without a ".gabs" extension, or refusing
// to fall back to the text parser on load.
func WithFormat(f Format) FormatOption { return FormatOption{format: f} }

// Load reads a graph from path. The format is auto-detected from the
// file's magic bytes — a binary snapshot reloads the prebuilt layout in
// O(m); anything else parses as the text edge list (chunked and parsed
// in parallel across GOMAXPROCS).
func Load(path string, opts ...LoadOption) (*Graph, error) {
	c := fileOptions{format: FormatAuto}
	for _, o := range opts {
		o.applyLoad(&c)
	}
	return graph.LoadFormat(path, c.format)
}

// Save writes g to path atomically (temporary sibling + rename). The
// format follows the extension — ".gabs" plain snapshot, ".gabz"
// compressed snapshot, anything else the text edge list — unless
// WithFormat overrides it.
func Save(path string, g *Graph, opts ...SaveOption) error {
	c := fileOptions{format: FormatAuto}
	for _, o := range opts {
		o.applySave(&c)
	}
	return graph.SaveFormat(path, g, c.format)
}

// ReadEdgeList parses a plain-text "src dst [weight]" edge list. It is
// the io.Reader form of Load on a text file; prefer Load for paths.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteEdgeList writes g in the format ReadEdgeList parses. It is the
// io.Writer form of Save with FormatText; prefer Save for paths.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// Program is the GAS/BCD vertex program abstraction; implement it to run
// custom algorithms on the engine (see the bcd package for the built-ins
// and examples/custom for an external implementation).
type Program[V, M any] = bcd.Program[V, M]

// Codec describes how vertex values are stored in the engine's atomic
// word arrays; a Program supplies one for its value type.
type Codec[V any] = word.Codec[V]

// Built-in codecs for Program implementations.
type (
	// F64Codec stores one float64 per value.
	F64Codec = word.F64
	// U64Codec stores one uint64 per value.
	U64Codec = word.U64
	// Vec32Codec stores a fixed-dimension []float32 vector.
	Vec32Codec = word.Vec32
)

// Built-in algorithm programs.
type (
	// PageRank is damped PageRank (Sec. III-A2 of the paper).
	PageRank = bcd.PageRank
	// SSSP is single-source shortest path by asynchronous relaxation.
	SSSP = bcd.SSSP
	// BFS computes breadth-first levels.
	BFS = bcd.BFS
	// CC computes connected components by min-label propagation.
	CC = bcd.CC
	// LabelProp is weighted majority label propagation.
	LabelProp = bcd.LabelProp
	// CF is collaborative filtering by low-rank factorization.
	CF = bcd.CF
	// PageRankDelta is the operation-based PageRank variant; the engine
	// runs it with atomic read-modify-write edge slots (Sec. IV-A3).
	PageRankDelta = bcd.PageRankDelta
	// KCore computes coreness by the monotone h-index fixpoint.
	KCore = bcd.KCore
)

// Unreached marks vertices not reached by BFS/CC.
const Unreached = bcd.Unreached

// Mode selects the execution model.
type Mode = core.Mode

// Execution modes.
const (
	// Async is the paper's barrierless, lock-free engine.
	Async = core.Async
	// Barrier adds a memory barrier after each wave of blocks.
	Barrier = core.Barrier
	// BSP is bulk-synchronous Jacobi iteration (block size |V|).
	BSP = core.BSP
)

// Policy selects the block scheduling rule.
type Policy = sched.Policy

// Scheduling policies.
const (
	// Cyclic selects blocks in round-robin order.
	Cyclic = sched.Cyclic
	// Priority selects by Gauss-Southwell gradient mass.
	Priority = sched.Priority
	// Random selects uniformly among active blocks.
	Random = sched.Random
)

// Config parameterizes an engine run.
type Config = core.Config

// DefaultConfig returns an async cyclic configuration with the given
// block size.
func DefaultConfig(blockSize int) Config { return core.DefaultConfig(blockSize) }

// Stats summarizes a run.
type Stats = core.Stats

// Result bundles final vertex values with run statistics.
type Result[V any] = core.Result[V]

// Run executes any Program over g. Instantiate the type parameters from
// the program, e.g. Run[float64, float64](g, PageRank{}, cfg).
//
// Run and RunContext are the typed escape hatch for custom Program
// implementations; for the built-in algorithms prefer a Runtime and a
// JobSpec, which add job handles, progress events, and registry
// dispatch on top of the same engine.
func Run[V, M any](g *Graph, prog Program[V, M], cfg Config) (*Result[V], error) {
	return RunContext(context.Background(), g, prog, cfg)
}

// RunContext is Run with cancellation and deadline support: when ctx is
// cancelled the engine drains gracefully and returns the partial
// fixed-point computed so far with Stats.Converged == false. The config
// is validated (Config.Validate) before any goroutine starts.
func RunContext[V, M any](ctx context.Context, g *Graph, prog Program[V, M], cfg Config) (*Result[V], error) {
	return core.RunContext(ctx, g, prog, cfg)
}

// PPR is personalized PageRank over a seed set; construct with NewPPR.
type PPR = bcd.PPR

// NewPPR builds a personalized-PageRank program: the teleport mass is
// concentrated uniformly on seeds instead of spread over |V|. A damping
// of 0 means the 0.85 default.
func NewPPR(damping float64, seeds []uint32) (PPR, error) { return bcd.NewPPR(damping, seeds) }

// Simulator is the HARPv2 accelerator cost model; attach one via
// Config.Sim to collect modeled time, traffic, and utilization.
type Simulator = accel.Simulator

// SimConfig describes the modeled CPU-accelerator platform.
type SimConfig = accel.Config

// NewSimulator builds an accelerator model.
func NewSimulator(cfg SimConfig) (*Simulator, error) { return accel.New(cfg) }

// DefaultHARPv2 is the paper's evaluation platform: 16 PEs at 200 MHz
// behind a 12.8 GB/s bus, 14 host threads.
func DefaultHARPv2() SimConfig { return accel.DefaultHARPv2() }

// Synthetic dataset generators (substitutes for the paper's Table I).

// RMATConfig parameterizes an R-MAT (Kronecker) social-graph generator.
type RMATConfig = gen.RMATConfig

// RMAT generates a power-law directed graph.
func RMAT(cfg RMATConfig) (*Graph, error) { return gen.RMAT(cfg) }

// DefaultRMAT returns Graph500-style R-MAT parameters.
func DefaultRMAT(scale, edgeFactor int, seed uint64) RMATConfig {
	return gen.DefaultRMAT(scale, edgeFactor, seed)
}

// RatingConfig parameterizes the bipartite rating-graph generator.
type RatingConfig = gen.RatingConfig

// RatingGraph is a generated bipartite user-item graph for CF.
type RatingGraph = gen.RatingGraph

// Rating generates a planted-low-rank bipartite rating graph.
func Rating(cfg RatingConfig) (*RatingGraph, error) { return gen.Rating(cfg) }

// DefaultRating returns MovieLens-like rating-generator parameters.
func DefaultRating(users, items, ratings int, seed uint64) RatingConfig {
	return gen.DefaultRating(users, items, ratings, seed)
}

// Uniform generates an Erdős–Rényi G(n, m) graph.
func Uniform(n, m, maxWeight int, seed uint64) (*Graph, error) {
	return gen.Uniform(n, m, maxWeight, seed)
}

// Grid generates a rows x cols bidirectional mesh.
func Grid(rows, cols, maxWeight int, seed uint64) (*Graph, error) {
	return gen.Grid(rows, cols, maxWeight, seed)
}

// Distributed execution: the scale-out deployment the paper's asynchronous
// design targets (Sec. IV-A3), with each node running its own engine over
// a partition of the blocks and state-based updates flowing over message
// channels with bounded delay.

// ClusterConfig parameterizes a distributed run.
type ClusterConfig = cluster.Config

// ClusterStats summarizes a distributed run.
type ClusterStats = cluster.Stats

// ClusterResult bundles final values with distributed-run statistics.
type ClusterResult[V any] = cluster.Result[V]

// RunDistributed executes any Program across a multi-node cluster. Like
// Run/RunContext it is the typed escape hatch for custom programs; the
// built-in algorithms run distributed through a Runtime JobSpec with
// WithClusterConfig, which validates the cluster config at the Runtime
// boundary before any sharding happens.
func RunDistributed[V, M any](g *Graph, prog Program[V, M], cfg ClusterConfig) (*ClusterResult[V], error) {
	return cluster.Run(context.Background(), g, prog, cfg)
}

// RunDistributedContext is RunDistributed under a context: cancellation
// or deadline expiry stops the cluster gracefully and returns the
// partial fixed-point computed so far with Stats.Converged == false.
func RunDistributedContext[V, M any](ctx context.Context, g *Graph, prog Program[V, M], cfg ClusterConfig) (*ClusterResult[V], error) {
	return cluster.Run(ctx, g, prog, cfg)
}

// Edge storage backends (out-of-core and compressed execution).

// EdgeSource abstracts where the static edge structure streams from
// during GATHER; set Config.Edges to run out-of-core or compressed.
type EdgeSource = edgestore.Source

// InMemoryEdges is the default zero-copy source over the graph's arrays.
func InMemoryEdges(g *Graph) EdgeSource { return edgestore.InMemory(g) }

// OpenSnapshotEdges opens a plain snapshot saved with Save (or
// WithFormat(FormatSnapshot)) as an out-of-core edge source for g: the
// one file both reloads the graph and streams its edge blocks, replacing
// the separate WriteEdgeFile spill.
func OpenSnapshotEdges(g *Graph, path string) (EdgeSource, error) {
	return edgestore.OpenSnapshot(g, path)
}

// WriteEdgeFile spills g's static edge structure to a raw binary file.
//
// Kept as a thin wrapper for existing callers; new code should Save a
// FormatSnapshot file, which OpenSnapshotEdges can stream from and Load
// can reload without rebuilding.
func WriteEdgeFile(g *Graph, path string) error { return edgestore.WriteFile(g, path) }

// OpenEdgeFile opens a raw edge file for out-of-core execution.
//
// Kept as a thin wrapper for existing callers; see WriteEdgeFile.
func OpenEdgeFile(g *Graph, path string) (EdgeSource, error) { return edgestore.OpenFile(g, path) }

// WriteCompressedEdges writes the delta-varint compressed edge format,
// the compact representation of Sec. VI-C. Unlike snapshots this stores
// only the edge structure, not the full reloadable layout.
func WriteCompressedEdges(g *Graph, path string) error { return edgestore.WriteCompressed(g, path) }

// OpenCompressedEdges opens a compressed edge file for execution.
func OpenCompressedEdges(g *Graph, path string) (EdgeSource, error) {
	return edgestore.OpenCompressed(g, path)
}
