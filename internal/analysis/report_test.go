package analysis

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
)

// fixtureResult loads one fixture package and runs one analyzer, returning
// the full Result for report-layer tests.
func fixtureResult(t *testing.T, rule string, cfg *Config, dir string) (*Result, string) {
	t.Helper()
	a := ByName(rule)
	if a == nil {
		t.Fatalf("unknown rule %q", rule)
	}
	if cfg == nil {
		cfg = DefaultConfig()
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	diags, sups := analyze(loader.Fset, []*Package{pkg}, []*Analyzer{a}, cfg)
	base, err := filepath.Abs(".")
	if err != nil {
		t.Fatalf("Abs: %v", err)
	}
	return &Result{Fset: loader.Fset, Diags: diags, Suppressions: sups}, base
}

func TestJSONReport(t *testing.T) {
	res, base := fixtureResult(t, "hotpath", nil, "testdata/src/hotpath")
	rep := BuildReport(res, base)
	if len(rep.Findings) == 0 {
		t.Fatal("no findings in hotpath fixture")
	}
	if len(rep.Suppressions) == 0 {
		t.Fatal("hotpath fixture carries suppressions, none reported")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Tool != "abcdlint" || len(back.Findings) != len(rep.Findings) {
		t.Fatalf("round-trip mismatch: tool=%q findings=%d want %d", back.Tool, len(back.Findings), len(rep.Findings))
	}
	// The transitive hotpath finding must carry its call chain, root first
	// with no call site, hops with resolved sites.
	var chained *Finding
	for i := range back.Findings {
		if len(back.Findings[i].Chain) > 1 {
			chained = &back.Findings[i]
			break
		}
	}
	if chained == nil {
		t.Fatal("no finding carries a multi-hop chain")
	}
	if chained.Chain[0].Func == "" || chained.Chain[0].File != "" {
		t.Errorf("chain root should name the annotated function with no call site: %+v", chained.Chain[0])
	}
	last := chained.Chain[len(chained.Chain)-1]
	if last.File == "" || last.Line == 0 {
		t.Errorf("chain hop lacks a resolved call site: %+v", last)
	}
}
