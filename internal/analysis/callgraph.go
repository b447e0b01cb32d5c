package analysis

import (
	"go/ast"
	"go/types"
)

// This file builds the package-level call graph the interprocedural
// hotpath analyzer walks. The graph is computed once per module pass over
// the go/types-checked ASTs:
//
//   - one node per declared function or method with a body;
//   - one edge per call expression, carrying the call site (calls inside
//     function literals count as calls of the enclosing declaration,
//     since they run on the same path when invoked there);
//   - direct and method calls resolve to their static callee; calls
//     through an interface fan out, class-hierarchy style, to every
//     scanned concrete method with the same name and arity. That
//     over-approximates dynamic dispatch — deliberately: a missed hot-path
//     violation is worse than a suppressible false positive.
//
// Calls into packages outside the scanned set (the standard library) have
// no node and terminate propagation; the analyzers' own classifiers
// (allocMessage, hotPathMutexCall) decide what to say about such leaves.

// cgEdge is one resolved call: caller -> callee at a specific site.
type cgEdge struct {
	callee *types.Func
	site   *ast.CallExpr
}

// cgNode is one declared function in the scanned module.
type cgNode struct {
	obj   *types.Func
	decl  *ast.FuncDecl
	pkg   *Package
	edges []cgEdge
}

// callGraph indexes the scanned module's functions and call edges.
type callGraph struct {
	funcs map[*types.Func]*cgNode
	// methodsByName indexes concrete methods for interface-call fan-out.
	methodsByName map[string][]*types.Func
}

// buildCallGraph constructs the graph over every package in the pass.
func buildCallGraph(pkgs []*Package) *callGraph {
	g := &callGraph{
		funcs:         make(map[*types.Func]*cgNode),
		methodsByName: make(map[string][]*types.Func),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.funcs[obj] = &cgNode{obj: obj, decl: fd, pkg: pkg}
				if fd.Recv != nil {
					g.methodsByName[fd.Name.Name] = append(g.methodsByName[fd.Name.Name], obj)
				}
			}
		}
	}
	for _, n := range g.funcs {
		g.collectEdges(n)
	}
	return g
}

// collectEdges records one resolved edge per call site in a function
// body, function literals included (they run on the same path).
func (g *callGraph) collectEdges(node *cgNode) {
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			for _, callee := range g.resolveCallees(node.pkg.Info, call) {
				node.edges = append(node.edges, cgEdge{callee: callee, site: call})
			}
		}
		return true
	})
}

// resolveCallees maps a call expression to the function objects it may
// invoke: the static callee for direct and method calls, or — for calls
// through an interface — every scanned concrete method with the same name
// and arity.
func (g *callGraph) resolveCallees(info *types.Info, call *ast.CallExpr) []*types.Func {
	var fn *types.Func
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[fun.Sel].(*types.Func)
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		if id, ok := unparen(fun.X).(*ast.Ident); ok {
			fn, _ = info.Uses[id].(*types.Func)
		}
	}
	if fn == nil {
		return nil
	}
	fn = fn.Origin()
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
		// Interface dispatch: fan out by name and arity. Type-parameter
		// substitution preserves arity, so this stays sound for generic
		// interfaces like bcd.Program[V, M], where types.Implements cannot
		// relate a concrete program to the parameterized interface.
		var out []*types.Func
		for _, m := range g.methodsByName[fn.Name()] {
			msig := m.Type().(*types.Signature)
			if msig.Params().Len() == sig.Params().Len() && msig.Recv() != nil && !types.IsInterface(msig.Recv().Type()) {
				out = append(out, m)
			}
		}
		return out
	}
	return []*types.Func{fn}
}
