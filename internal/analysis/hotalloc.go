package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// HotAlloc guards the engine's per-edge and per-vertex inner loops against
// hidden allocation. GraphABCD's throughput story (Sec. IV-A1: the GATHER
// pipeline sustains one edge per cycle) survives in software only if the
// hot loops are allocation-free: a make/append/fmt call per edge turns the
// streaming loops into GC pressure. The analyzer seeds a reachability walk
// over the shared call graph at the configured hot roots (Config.HotRoots);
// inside a root it flags allocation sites lexically inside loops, and in
// any function reachable from such a loop it flags allocation sites
// anywhere. Calls through interfaces fan out by name+arity (see
// callgraph.go), which over-approximates — suppress deliberate amortized
// allocations with a reason.
//
// Flagged: make, new, append, any call into package fmt, and the
// word.Array Load/Store/Fill convenience methods, whose documentation
// already directs hot paths to LoadBuf/StoreBuf.
var HotAlloc = &Analyzer{
	Name:      hotAllocName,
	Doc:       "flags allocating operations reachable from the engine's hot loops",
	RunModule: runHotAlloc,
}

func runHotAlloc(pass *ModulePass) {
	graph := buildCallGraph(pass.Pkgs)

	// Reachability: from a root only loop-resident calls propagate; from
	// anything reached, every call propagates.
	reached := make(map[*types.Func]bool)
	var queue []*types.Func
	enqueue := func(obj *types.Func) {
		if !reached[obj] {
			reached[obj] = true
			queue = append(queue, obj)
		}
	}
	roots := make(map[*types.Func]bool)
	for _, n := range graph.funcs {
		if isHotRoot(pass.Config, n.pkg, n.decl) {
			roots[n.obj] = true
			for _, e := range n.edges {
				if e.inLoop {
					enqueue(e.callee)
				}
			}
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		if n, ok := graph.funcs[obj]; ok {
			for _, e := range n.edges {
				enqueue(e.callee)
			}
		}
	}

	// Flag allocation sites. Roots: loops only. Reached: anywhere.
	for _, n := range graph.funcs {
		switch {
		case roots[n.obj]:
			flagAllocs(pass, n, true)
		case reached[n.obj]:
			flagAllocs(pass, n, false)
		}
	}
}

// isHotRoot matches a declaration against Config.HotRoots "pkg:func"
// patterns (import-path suffix plus function name).
func isHotRoot(cfg *Config, pkg *Package, fd *ast.FuncDecl) bool {
	for _, pat := range cfg.HotRoots {
		pkgPat, funcPat, ok := strings.Cut(pat, ":")
		if !ok {
			continue
		}
		if fd.Name.Name == funcPat && strings.HasSuffix(pkg.ImportPath, pkgPat) {
			return true
		}
	}
	return false
}

// children invokes fn on the direct children of n.
func children(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}

// flagAllocs reports allocation sites in node's body. For root functions
// only sites inside loops are flagged; otherwise the whole body is hot.
func flagAllocs(pass *ModulePass, node *cgNode, loopsOnly bool) {
	info := node.pkg.Info
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.ForStmt:
			if n.Init != nil {
				walk(n.Init, inLoop)
			}
			if n.Cond != nil {
				walk(n.Cond, inLoop)
			}
			if n.Post != nil {
				walk(n.Post, inLoop)
			}
			walk(n.Body, true)
			return
		case *ast.RangeStmt:
			walk(n.X, inLoop)
			walk(n.Body, true)
			return
		case *ast.CallExpr:
			if !loopsOnly || inLoop {
				if msg := allocMessage(info, n); msg != "" {
					pass.Report(Diagnostic{Pos: n.Pos(), Rule: hotAllocName,
						Message: fmt.Sprintf("%s in hot path %s; %s", msg, node.obj.Name(), allocAdvice(msg))})
				}
			}
		}
		children(n, func(c ast.Node) { walk(c, inLoop) })
	}
	walk(node.decl.Body, false)
}

// allocMessage classifies a call as an allocation site, returning a short
// description or "".
func allocMessage(info *types.Info, call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				return b.Name() + " allocates"
			case "append":
				return "append may grow and allocate"
			}
		}
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return ""
		}
		if fn.Pkg().Path() == "fmt" {
			return "fmt." + fn.Name() + " allocates and reflects"
		}
		if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
			if named := namedRecvType(sig.Recv().Type()); named != nil {
				obj := named.Obj()
				if obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/word") && obj.Name() == "Array" {
					switch fn.Name() {
					case "Load", "Store", "Fill":
						return "word.Array." + fn.Name() + " allocates a transfer buffer per call"
					}
				}
			}
		}
	}
	return ""
}

// allocAdvice returns the remediation hint for an allocation class.
func allocAdvice(msg string) string {
	switch {
	case strings.Contains(msg, "word.Array"):
		return "use LoadBuf/StoreBuf with a per-worker buffer"
	case strings.Contains(msg, "fmt."):
		return "move formatting out of the hot path"
	default:
		return "hoist the buffer into per-worker scratch or a run-scoped free list"
	}
}

// namedRecvType unwraps a receiver type to its named type, if any.
func namedRecvType(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
