package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// LockSafe polices the few places the engine is allowed to use locks at
// all. GraphABCD's dataflow is deliberately lock-free (Sec. IV-A3); the
// mutexes that remain (the block workers' pick lock, accelerator-model
// accounting, baseline sweeps) are leaf-level critical sections. Two
// hazards would break the engine's liveness story:
//
//  1. Holding a mutex across a channel operation or other blocking call —
//     every block worker takes the pick lock once per block, so a lock
//     held across a blocking call stalls them all, and one held across a
//     channel op (the cluster's send window, a transport queue) can
//     deadlock them.
//  2. A Lock whose Unlock is not reached on every path (early return, or
//     no Unlock at all in the same block) — use defer, or restructure.
//
// The check is lexical within one statement block: a Lock immediately
// followed by a matching deferred Unlock is always accepted.
var LockSafe = &Analyzer{
	Name: lockSafeName,
	Doc:  "flags mutexes held across blocking operations and Locks without covering Unlocks",
	Run:  runLockSafe,
}

func runLockSafe(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch b := n.(type) {
			case *ast.BlockStmt:
				list = b.List
			case *ast.CaseClause:
				list = b.Body
			case *ast.CommClause:
				list = b.Body
			default:
				return true
			}
			checkLockBlock(pass, list)
			return true
		})
	}
}

// checkLockBlock scans one statement list for Lock calls and verifies each
// is covered by an Unlock in the same list.
func checkLockBlock(pass *Pass, stmts []ast.Stmt) {
	info := pass.Pkg.Info
	for i, s := range stmts {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			continue
		}
		mutex, lockName := mutexCall(info, es.X)
		if mutex == "" || (lockName != "Lock" && lockName != "RLock") {
			continue
		}
		unlockName := "Unlock"
		if lockName == "RLock" {
			unlockName = "RUnlock"
		}

		covered := false
		var hazards []Diagnostic
		for j := i + 1; j < len(stmts); j++ {
			if d, ok := stmts[j].(*ast.DeferStmt); ok {
				if m, n := mutexCall(info, d.Call); m == mutex && n == unlockName {
					covered = true // defer covers every later path
					break
				}
			}
			if e2, ok := stmts[j].(*ast.ExprStmt); ok {
				if m, n := mutexCall(info, e2.X); m == mutex && n == unlockName {
					covered = true
					break
				}
			}
			hazards = append(hazards, stmtHazards(pass, info, mutex, stmts[j])...)
		}
		if !covered {
			pass.Report(Diagnostic{Pos: es.Pos(), Rule: lockSafeName,
				Message: fmt.Sprintf("%s.%s is not released in this block and no defer covers it; add `defer %s.%s()`",
					mutex, lockName, mutex, unlockName)})
			continue
		}
		for _, h := range hazards {
			pass.Report(h)
		}
	}
}

// stmtHazards collects blocking operations and early exits nested anywhere
// in one statement executed between Lock and Unlock.
func stmtHazards(pass *Pass, info *types.Info, mutex string, stmt ast.Stmt) []Diagnostic {
	var out []Diagnostic
	report := func(pos ast.Node, what string) {
		out = append(out, Diagnostic{Pos: pos.Pos(), Rule: lockSafeName,
			Message: fmt.Sprintf("%s while holding %s; the engine's task queues must never be touched under a lock", what, mutex)})
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // deferred/spawned bodies run elsewhere
		case *ast.SendStmt:
			report(n, "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n, "channel receive")
			}
		case *ast.SelectStmt:
			report(n, "select")
			return false
		case *ast.CallExpr:
			if m, name := mutexCall(info, n); m != "" && name == "Wait" {
				report(n, "sync."+name)
			}
		case *ast.ReturnStmt:
			out = append(out, Diagnostic{Pos: n.Pos(), Rule: lockSafeName,
				Message: fmt.Sprintf("return between %s.Lock and its Unlock leaves the mutex held; use defer", mutex)})
		}
		return true
	})
	return out
}

// mutexCall matches `x.M()` where M is a method of a sync type
// (Mutex, RWMutex, WaitGroup, ...), returning the receiver expression
// rendered as a string plus the method name.
func mutexCall(info *types.Info, e ast.Expr) (mutex, method string) {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	if fn.Type().(*types.Signature).Recv() == nil {
		return "", ""
	}
	return types.ExprString(sel.X), fn.Name()
}
