// Package analysis implements abcdlint, GraphABCD's custom static-analysis
// suite. The engine's correctness rests on invariants the Go compiler does
// not check: every shared vertex word must be accessed through sync/atomic
// (the paper's barrierless, lock-free state-based updates of Sec. IV-A3 are
// only race-free under that discipline), the GATHER/APPLY/SCATTER inner
// loops must not allocate per edge, and the scheduler must never hold a
// lock across a task-queue operation. The analyzers in this package
// machine-check those rules over the module's type-checked AST, using only
// the standard library (go/ast, go/parser, go/token, go/types) — no
// golang.org/x/tools dependency.
//
// A finding can be suppressed with a comment on the flagged line or the
// line directly above it:
//
//	//abcdlint:ignore rule1,rule2 -- reason why this is a false positive
//
// The reason after "--" is mandatory; a suppression without one is not
// honored.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Rule names, usable in //abcdlint:ignore suppressions and -rules flags.
const (
	atomicWordName = "atomicword"
	hotAllocName   = "hotalloc"
	hotPathName    = "hotpath"
	lockSafeName   = "locksafe"
	errCheckName   = "errcheck"
	goroutineName  = "goroutine"
	ctxLoopName    = "ctxloop"
	publishName    = "publish"
	boundAllocName = "boundalloc"
)

// ChainHop is one step of an interprocedural finding's call chain: the
// function entered and the call site that entered it.
type ChainHop struct {
	Func string    // package-local function or method name
	Pos  token.Pos // call site in the caller, NoPos for the chain root
}

// Diagnostic is one finding of one analyzer. Chain, when non-nil, is the
// call path from an analysis root (e.g. an //abcd:hotpath function) to the
// function containing Pos, outermost first.
type Diagnostic struct {
	Pos     token.Pos
	Rule    string
	Message string
	Chain   []ChainHop
}

// Package is one loaded, type-checked package.
type Package struct {
	Dir        string
	ImportPath string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Pass is the per-package unit of work handed to an analyzer's Run.
type Pass struct {
	Fset   *token.FileSet
	Pkg    *Package
	Config *Config
	Report func(Diagnostic)
}

// ModulePass is the module-wide unit of work handed to an analyzer's
// RunModule: every scanned package at once, for analyses that must cross
// package boundaries (call-graph reachability).
type ModulePass struct {
	Fset   *token.FileSet
	Pkgs   []*Package
	Config *Config
	Report func(Diagnostic)

	// SuppressedAt reports whether a suppression for rule covers pos. The
	// driver wires it before analyzers run so interprocedural analyses can
	// honor boundary suppressions: an //abcdlint:ignore on a call site stops
	// contract propagation through that edge, not just the one finding. Nil
	// means no suppression information (treat nothing as suppressed).
	SuppressedAt func(pos token.Pos, rule string) bool
}

// suppressedAt is the nil-safe accessor for SuppressedAt.
func (p *ModulePass) suppressedAt(pos token.Pos, rule string) bool {
	return p.SuppressedAt != nil && p.SuppressedAt(pos, rule)
}

// Analyzer is one named rule. Exactly one of Run (per package) or
// RunModule (whole module) is set.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// All returns every analyzer in the suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{AtomicWord, HotAlloc, HotPath, LockSafe, ErrCheck, GoroutineHygiene, CtxLoop, Publish, BoundAlloc}
}

// ByName returns the analyzer with the given rule name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Config tunes the analyzers. The zero value is not useful; start from
// DefaultConfig.
type Config struct {
	// HotRoots seeds hotalloc's reachability analysis with the functions
	// containing the engine's hot loops. Each entry is "pkg:func": a
	// package import-path suffix and a function or method name. Allocation
	// sites inside a root's loops are flagged, as is any allocation in a
	// function called (transitively) from such a loop.
	HotRoots []string

	// ErrcheckIgnoreDeferredClose makes errcheck accept `defer f.Close()`
	// with a dropped error, the ubiquitous cleanup idiom.
	ErrcheckIgnoreDeferredClose bool

	// BoundAllocPkgs restricts boundalloc to packages whose import path
	// contains one of these substrings — the decoder packages that consume
	// untrusted on-disk or wire bytes.
	BoundAllocPkgs []string

	// BoundAllocClamps names the functions boundalloc recognizes as size
	// clamps: an allocation size expression that flows through one of these
	// calls is considered bounded.
	BoundAllocClamps []string

	// GoroutineOwnedPkgs restricts the goroutine lifetime rule to packages
	// whose import path contains one of these substrings — the long-lived
	// daemon-ish layers where a leaked goroutine outlives the run.
	GoroutineOwnedPkgs []string
}

// DefaultConfig returns the configuration used by cmd/abcdlint: the hot
// roots are the engine's GATHER-APPLY loop, the SCATTER loop, the cluster
// node's fused worker and batch delivery, and the accelerator model's
// per-task accounting — the paths a block task traverses on every update.
func DefaultConfig() *Config {
	return &Config{
		HotRoots: []string{
			"internal/core:GatherApply",
			"internal/core:Scatter",
			"internal/cluster:processBlock",
			"internal/cluster:Deliver",
			"internal/accel:RunBlock",
			"internal/accel:RunScatter",
			"internal/accel:RunGather",
		},
		ErrcheckIgnoreDeferredClose: true,
		BoundAllocPkgs:              []string{"internal/edgestore", "internal/graph", "internal/cluster", "internal/chaos/netproxy", "internal/checkpoint", "internal/telemetry", "internal/obslog", "internal/serve"},
		BoundAllocClamps:            []string{"presizeCap", "growEarned"},
		GoroutineOwnedPkgs:          []string{"/cmd/", "internal/telemetry", "internal/obslog", "internal/serve"},
	}
}
