package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotPath enforces the `//abcd:hotpath` annotation: a function so marked
// declares itself part of the engine's per-block fast path (the
// GATHER-APPLY and SCATTER chains and the telemetry write paths that ride
// on them), and the contract — no allocation, no mutex — holds not just
// for its own body but for everything it calls. The analyzer walks the
// shared call graph from every annotated function and flags violating
// sites in every reachable callee, reporting the call chain that makes the
// site hot. Allocation sites are make, new, append, any call into package
// fmt, and the word.Array Load/Store conveniences, whose
// documentation already directs hot paths to LoadBuf/StoreBuf: the GATHER
// pipeline's one edge per cycle (Sec. IV-A1) survives in software only if
// the per-edge path does not turn into GC pressure. Lock use flags any
// sync.Mutex / sync.RWMutex method call, because the hot path's
// concurrency discipline is atomics and single-writer shards only
// (DESIGN.md §7, §9).
//
// Two suppression granularities exist. A site suppression
// (`//abcdlint:ignore hotpath -- reason` on the allocation or lock) keeps
// one finding quiet. A boundary suppression — the same comment on a call
// site inside hot code — additionally stops the contract from propagating
// through that edge, for calls that are deliberately amortized off the
// per-edge path (a per-batch flush, pool-refilled scratch).
var HotPath = &Analyzer{
	Name:      hotPathName,
	Doc:       "flags allocations and mutex use in //abcd:hotpath functions and everything they transitively call",
	RunModule: runHotPath,
}

// hotPathDirective is the annotation the rule looks for in a function's
// doc comment group.
const hotPathDirective = "//abcd:hotpath"

func runHotPath(pass *ModulePass) {
	graph := buildCallGraph(pass.Pkgs)

	annotated := make(map[*types.Func]*cgNode)
	var roots []*cgNode
	for _, n := range graph.funcs {
		if isHotPathFunc(n.decl) {
			annotated[n.obj] = n
			roots = append(roots, n)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].decl.Pos() < roots[j].decl.Pos() })

	// Annotated bodies are checked directly, then the contract propagates
	// breadth-first through unsuppressed call edges. A callee reachable
	// from several roots is reported once, with the first (position-order)
	// chain that reaches it.
	for _, root := range roots {
		checkHotPathBody(pass, root, nil)
	}
	visited := make(map[*types.Func]bool)
	for _, root := range roots {
		type item struct {
			node  *cgNode
			chain []ChainHop
		}
		queue := []item{{node: root, chain: []ChainHop{{Func: funcDisplayName(root), Pos: token.NoPos}}}}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, e := range cur.node.edges {
				callee, ok := graph.funcs[e.callee]
				if !ok || annotated[e.callee] != nil {
					continue // outside the scanned module, or a root checked on its own
				}
				if pass.suppressedAt(e.site.Pos(), hotPathName) {
					continue // boundary suppression: edge declared amortized
				}
				if visited[e.callee] {
					continue
				}
				visited[e.callee] = true
				chain := append(append([]ChainHop(nil), cur.chain...),
					ChainHop{Func: funcDisplayName(callee), Pos: e.site.Pos()})
				checkHotPathBody(pass, callee, chain)
				queue = append(queue, item{node: callee, chain: chain})
			}
		}
	}
}

// isHotPathFunc reports whether fd carries the //abcd:hotpath directive.
func isHotPathFunc(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == hotPathDirective {
			return true
		}
	}
	return false
}

// funcDisplayName renders a function for chain reporting: "Type.Name" for
// methods, "Name" otherwise.
func funcDisplayName(n *cgNode) string {
	if sig, ok := n.obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedRecvType(sig.Recv().Type()); named != nil {
			return named.Obj().Name() + "." + n.obj.Name()
		}
	}
	return n.obj.Name()
}

// chainString renders a call chain as "root -> f -> g".
func chainString(chain []ChainHop) string {
	parts := make([]string, len(chain))
	for i, h := range chain {
		parts[i] = h.Func
	}
	return strings.Join(parts, " -> ")
}

// checkHotPathBody flags every allocation site and mutex method call in
// one function's body, including inside deferred calls and function
// literals (they run on the same path). A nil chain means the function
// itself carries the //abcd:hotpath annotation; otherwise chain is the
// call path from the annotated root.
func checkHotPathBody(pass *ModulePass, node *cgNode, chain []ChainHop) {
	info := node.pkg.Info
	name := node.decl.Name.Name
	where := fmt.Sprintf("//abcd:hotpath function %s", name)
	if chain != nil {
		where = fmt.Sprintf("%s, reached from //abcd:hotpath %s (chain: %s)",
			funcDisplayName(node), chain[0].Func, chainString(chain))
	}
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if msg := allocMessage(info, call); msg != "" {
			pass.Report(Diagnostic{Pos: call.Pos(), Rule: hotPathName, Chain: chain,
				Message: fmt.Sprintf("%s in %s; %s", msg, where, allocAdvice(msg))})
		}
		if lock := hotPathMutexCall(info, call); lock != "" {
			pass.Report(Diagnostic{Pos: call.Pos(), Rule: hotPathName, Chain: chain,
				Message: fmt.Sprintf("%s in %s; the hot path is lock-free — use atomics or a per-worker telemetry shard", lock, where)})
		}
		return true
	})
}

// hotPathMutexCall classifies a call as a sync.Mutex / sync.RWMutex method,
// returning "sync.Mutex.Lock"-style text or "".
func hotPathMutexCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	named := namedRecvType(sig.Recv().Type())
	if named == nil {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return ""
	}
	switch obj.Name() {
	case "Mutex", "RWMutex":
		return "sync." + obj.Name() + "." + fn.Name()
	}
	return ""
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
					case "Load", "Store":
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
