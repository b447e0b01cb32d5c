package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// BoundAlloc guards the decoders against hostile-input allocation: in the
// configured decoder packages (Config.BoundAllocPkgs — the binfmt section
// codec and its GABS/GABZ/GABC users, edgestore, the wire codecs), a make
// whose length or capacity derives from a value decoded out of the input
// bytes (encoding/binary fixed-width reads, varints) must flow through a
// recognized clamp (Config.BoundAllocClamps: binfmt.PresizeCap,
// binfmt.GrowEarned) before allocating. A corrupt or hostile header
// otherwise turns an 8-byte field into a multi-gigabyte upfront
// allocation — the failure mode DESIGN.md §10 documents the clamps as the
// defense against.
//
// The analysis is per function: decoded values taint the variables they
// are assigned to, taint propagates through assignments and expressions,
// and a clamp call launders its result. Taint does not flow through
// struct fields or across calls — a size stored into a field and used
// later is assumed validated at the boundary where it was decoded (the
// documented conservatism; the fixture's cross-function case pins it).
var BoundAlloc = &Analyzer{
	Name: boundAllocName,
	Doc:  "flags make sizes derived from decoded header/varint values that bypass the clamp helpers",
	Run:  runBoundAlloc,
}

func runBoundAlloc(pass *Pass) {
	if !pkgMatches(pass.Pkg.ImportPath, pass.Config.BoundAllocPkgs) {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkBoundAlloc(pass, n.Body)
				}
				return false
			case *ast.FuncLit:
				checkBoundAlloc(pass, n.Body)
				return false
			}
			return true
		})
	}
}

// pkgMatches reports whether importPath contains any of the patterns.
func pkgMatches(importPath string, patterns []string) bool {
	for _, p := range patterns {
		if strings.Contains(importPath, p) {
			return true
		}
	}
	return false
}

// checkBoundAlloc runs the taint pass over one function body.
func checkBoundAlloc(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	tainted := make(map[types.Object]bool)

	// taintedExpr reports whether e mentions a decoded value outside any
	// clamp call (a clamp's result is bounded by construction).
	var taintedExpr func(e ast.Expr) bool
	taintedExpr = func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if isClampCall(info, n, pass.Config.BoundAllocClamps) {
					return false // laundered
				}
				if isDecodeCall(info, n) {
					found = true
				}
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil && tainted[obj] {
					found = true
				}
			}
			return !found
		})
		return found
	}

	// Propagate taint through assignments. Two sweeps reach values that
	// flow backward lexically (a helper variable assigned above its use in
	// a loop); the decoders' straight-line shape needs only one.
	for sweep := 0; sweep < 2; sweep++ {
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			taintLHS := func(lhs ast.Expr) {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					return // field/element stores do not carry taint
				}
				if obj := info.Defs[id]; obj != nil {
					tainted[obj] = true
				} else if obj := info.Uses[id]; obj != nil {
					tainted[obj] = true
				}
			}
			if len(as.Lhs) == len(as.Rhs) {
				for i, rhs := range as.Rhs {
					if taintedExpr(rhs) {
						taintLHS(as.Lhs[i])
					}
				}
			} else if len(as.Rhs) == 1 && taintedExpr(as.Rhs[0]) {
				// Multi-value: n, err := binary.Uvarint(...) taints all.
				for _, lhs := range as.Lhs {
					taintLHS(lhs)
				}
			}
			return true
		})
	}

	// Sink: make with a tainted, unclamped length or capacity.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
			return true
		}
		for _, size := range call.Args[1:] {
			if taintedExpr(size) {
				pass.Report(Diagnostic{Pos: call.Pos(), Rule: boundAllocName,
					Message: fmt.Sprintf("make size %s derives from a decoded header/varint value without a recognized clamp (%s); a hostile input controls this allocation — bound it or derive it from already-validated state",
						types.ExprString(size), strings.Join(pass.Config.BoundAllocClamps, "/"))})
				break
			}
		}
		return true
	})
}

// isDecodeCall reports whether call reads a value out of input bytes: any
// function or method of encoding/binary (fixed-width loads, varints).
func isDecodeCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := calleeFunc(info, call)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary"
}

// isClampCall matches a call to one of the configured clamp helpers by
// name (the names are distinctive enough that a bare comparison, package
// qualifier ignored, is unambiguous in the decoder packages).
func isClampCall(info *types.Info, call *ast.CallExpr, clamps []string) bool {
	fn, ok := calleeFunc(info, call)
	if !ok {
		return false
	}
	for _, c := range clamps {
		if fn.Name() == c {
			return true
		}
	}
	return false
}
