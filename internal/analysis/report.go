package analysis

import (
	"encoding/json"
	"go/token"
	"io"
)

// This file renders analysis results machine-readably: the JSON report
// scripts/check.sh keeps as lint_report.json, findings with their call
// chains plus the full suppression inventory.

// Finding is one diagnostic resolved to file coordinates.
type Finding struct {
	Rule    string      `json:"rule"`
	File    string      `json:"file"`
	Line    int         `json:"line"`
	Col     int         `json:"col"`
	Message string      `json:"message"`
	Chain   []ChainStep `json:"chain,omitempty"`
}

// ChainStep is one resolved hop of an interprocedural finding's call
// chain. The first hop is the analysis root (its call site fields are
// empty).
type ChainStep struct {
	Func string `json:"func"`
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
}

// SuppressionEntry is one //abcdlint:ignore comment, for the -ignored
// audit.
type SuppressionEntry struct {
	File   string   `json:"file"`
	Line   int      `json:"line"`
	Rules  []string `json:"rules"`
	Reason string   `json:"reason"`
}

// Report is the machine-readable analysis outcome.
type Report struct {
	Tool         string             `json:"tool"`
	Findings     []Finding          `json:"findings"`
	Suppressions []SuppressionEntry `json:"suppressions"`
}

// BuildReport resolves a Result's positions against base (paths inside
// base are relativized).
func BuildReport(res *Result, base string) *Report {
	rep := &Report{Tool: "abcdlint", Findings: []Finding{}, Suppressions: []SuppressionEntry{}}
	for _, d := range res.Diags {
		pos := res.Fset.Position(d.Pos)
		f := Finding{
			Rule:    d.Rule,
			File:    relPath(base, pos.Filename),
			Line:    pos.Line,
			Col:     pos.Column,
			Message: d.Message,
		}
		for _, hop := range d.Chain {
			step := ChainStep{Func: hop.Func}
			if hop.Pos != token.NoPos {
				hp := res.Fset.Position(hop.Pos)
				step.File = relPath(base, hp.Filename)
				step.Line = hp.Line
			}
			f.Chain = append(f.Chain, step)
		}
		rep.Findings = append(rep.Findings, f)
	}
	for _, s := range res.Suppressions {
		pos := res.Fset.Position(s.Pos)
		rep.Suppressions = append(rep.Suppressions, SuppressionEntry{
			File:   relPath(base, pos.Filename),
			Line:   pos.Line,
			Rules:  s.Rules,
			Reason: s.Reason,
		})
	}
	return rep
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
