package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Run loads every package named by patterns (relative to dir), applies the
// given analyzers, filters suppressed findings, and returns the surviving
// diagnostics sorted by position. The returned FileSet resolves their
// positions.
func Run(dir string, patterns []string, analyzers []*Analyzer, cfg *Config) ([]Diagnostic, *token.FileSet, error) {
	res, err := RunResult(dir, patterns, analyzers, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res.Diags, res.Fset, nil
}

// Result is a full analysis outcome: the surviving findings plus the
// suppression inventory, for the machine-readable reports and the
// -ignored audit.
type Result struct {
	Fset  *token.FileSet
	Diags []Diagnostic
	// Suppressions is every well-formed //abcdlint:ignore comment in the
	// scanned packages, in position order.
	Suppressions []Suppression
}

// Suppression is one parsed //abcdlint:ignore comment.
type Suppression struct {
	Pos    token.Pos
	Rules  []string
	Reason string
}

// RunResult is Run with the suppression inventory included.
func RunResult(dir string, patterns []string, analyzers []*Analyzer, cfg *Config) (*Result, error) {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	dirs, err := loader.ExpandPatterns(dir, patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, d := range dirs {
		pkg, err := loader.LoadDir(d)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", d, err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags, sups := analyze(loader.Fset, pkgs, analyzers, cfg)
	return &Result{Fset: loader.Fset, Diags: diags, Suppressions: sups}, nil
}

// Analyze applies analyzers to already-loaded packages, returning the
// unsuppressed diagnostics in position order.
func Analyze(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer, cfg *Config) []Diagnostic {
	diags, _ := analyze(fset, pkgs, analyzers, cfg)
	return diags
}

// analyze is the shared core: collect suppressions first (interprocedural
// analyzers honor them as propagation boundaries), run the analyzers,
// filter, report suppressions that name no rule or silence nothing, sort.
func analyze(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer, cfg *Config) ([]Diagnostic, []Suppression) {
	sup := collectSuppressions(fset, pkgs)
	suppressedAt := func(pos token.Pos, rule string) bool {
		return sup.suppressedAt(fset, pos, rule)
	}
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		if a.RunModule != nil {
			a.RunModule(&ModulePass{Fset: fset, Pkgs: pkgs, Config: cfg, Report: report, SuppressedAt: suppressedAt})
			continue
		}
		for _, pkg := range pkgs {
			a.Run(&Pass{Fset: fset, Pkg: pkg, Config: cfg, Report: report})
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if !sup.suppressedAt(fset, d.Pos, d.Rule) {
			kept = append(kept, d)
		}
	}
	// A suppression naming no rule of the suite (a typo, a deleted rule)
	// silences nothing; say so whatever subset ran. One naming a rule that
	// ran but neither silenced a finding of it nor cut a call edge it
	// propagates through is stale too. No comment can suppress these
	// findings.
	ran := map[string]bool{"all": len(analyzers) == len(All())}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for i, s := range sup.list {
		for _, r := range s.Rules {
			switch {
			case r != "all" && ByName(r) == nil:
				kept = append(kept, Diagnostic{Pos: s.Pos, Rule: staleIgnoreName,
					Message: fmt.Sprintf("//abcdlint:ignore names %q, which is no abcdlint rule, so it suppresses nothing", r)})
			case ran[r] && !sup.used[i][r] && !sup.nested[i]:
				kept = append(kept, Diagnostic{Pos: s.Pos, Rule: staleIgnoreName,
					Message: fmt.Sprintf("//abcdlint:ignore %s silences no finding and cuts no call edge; delete it", r)})
			}
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		pi, pj := fset.Position(kept[i].Pos), fset.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return kept[i].Rule < kept[j].Rule
	})
	sort.Slice(sup.list, func(i, j int) bool { return sup.list[i].Pos < sup.list[j].Pos })
	return kept, sup.list
}

// suppressions is every well-formed suppression in collection order,
// indexed by file and covered line, and the rules each one has applied.
type suppressions struct {
	list []Suppression
	at   map[string]map[int][]int // file -> covered line -> indexes into list
	used []map[string]bool        // per suppression: rules that silenced a finding or cut an edge
	// nested marks a suppression in a Package.Nested package, which
	// changes with its own module: it is never reported as stale.
	nested []bool
}

// collectSuppressions gathers every well-formed
// "//abcdlint:ignore rules -- reason" comment. One on a line of its own
// covers the next line; one trailing code covers only its own line. A
// malformed suppression (missing rule list or missing reason) is ignored,
// so the finding it was meant to silence still surfaces.
func collectSuppressions(fset *token.FileSet, pkgs []*Package) *suppressions {
	sup := &suppressions{at: make(map[string]map[int][]int)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			var src []byte // read once, at the file's first suppression
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rules, reason, ok := parseSuppression(c.Text)
					if !ok {
						continue
					}
					sup.list = append(sup.list, Suppression{Pos: c.Pos(), Rules: rules, Reason: reason})
					sup.used = append(sup.used, make(map[string]bool))
					sup.nested = append(sup.nested, pkg.Nested)
					pos := fset.Position(c.Pos())
					byLine := sup.at[pos.Filename]
					if byLine == nil {
						byLine = make(map[int][]int)
						sup.at[pos.Filename] = byLine
					}
					line := pos.Line
					if src == nil {
						src, _ = os.ReadFile(pos.Filename) // unreadable: every suppression counts as trailing
					}
					if start := pos.Offset - (pos.Column - 1); start >= 0 && pos.Offset <= len(src) &&
						len(bytes.TrimSpace(src[start:pos.Offset])) == 0 {
						line++ // alone on its line: it covers the next
					}
					byLine[line] = append(byLine[line], len(sup.list)-1)
				}
			}
		}
	}
	return sup
}

// parseSuppression extracts the rule list and reason from one comment,
// requiring the "-- reason" tail.
func parseSuppression(text string) ([]string, string, bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	rest, ok := strings.CutPrefix(text, "abcdlint:ignore")
	if !ok {
		return nil, "", false
	}
	ruleParts, reason, ok := strings.Cut(rest, "--")
	reason = strings.TrimSpace(reason)
	if !ok || reason == "" {
		return nil, "", false
	}
	var rules []string
	for _, r := range strings.Split(ruleParts, ",") {
		if r = strings.TrimSpace(r); r != "" {
			rules = append(rules, r)
		}
	}
	return rules, reason, len(rules) > 0
}

// suppressedAt reports whether a suppression for rule covers pos's line,
// and records every one that does as applied.
func (s *suppressions) suppressedAt(fset *token.FileSet, pos token.Pos, rule string) bool {
	p := fset.Position(pos)
	hit := false
	for _, i := range s.at[p.Filename][p.Line] {
		for _, r := range s.list[i].Rules {
			if r == rule || r == "all" {
				s.used[i][r], hit = true, true
			}
		}
	}
	return hit
}

// FormatDiagnostic renders one finding as "file:line:col: [rule] message",
// with the file path relative to base when possible.
func FormatDiagnostic(fset *token.FileSet, base string, d Diagnostic) string {
	pos := fset.Position(d.Pos)
	return fmt.Sprintf("%s:%d:%d: [%s] %s", relPath(base, pos.Filename), pos.Line, pos.Column, d.Rule, d.Message)
}

// relPath renders name relative to base when it is inside base.
func relPath(base, name string) string {
	if base != "" {
		if rel, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
	}
	return filepath.ToSlash(name)
}

// ---- shared AST helpers used by several analyzers ----

// unparen strips any number of parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
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

// namedRecvType unwraps a receiver type to its named type, if any.
func namedRecvType(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// parentMap records the parent of every node in a file, for upward
// classification of how an expression is used.
type parentMap map[ast.Node]ast.Node

func buildParents(files []*ast.File) parentMap {
	parents := make(parentMap)
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if len(stack) > 0 {
				parents[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})
	}
	return parents
}
