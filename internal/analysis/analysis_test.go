package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// fixtureCases maps one golden file to one analyzer run over one or more
// fixture packages under testdata/src. The suppress case reuses errcheck
// to prove the suppression filter, not the rule itself.
var fixtureCases = []struct {
	name string // golden file stem
	rule string
	cfg  *Config // nil means DefaultConfig
	dirs []string
}{
	{name: "atomicword", rule: "atomicword", dirs: []string{"testdata/src/atomicword"}},
	{name: "hotpath", rule: "hotpath", dirs: []string{"testdata/src/hotpath"}},
	{name: "locksafe", rule: "locksafe", dirs: []string{"testdata/src/locksafe"}},
	{name: "errcheck", rule: "errcheck", dirs: []string{"testdata/src/errcheck"}},
	{name: "goroutine", rule: "goroutine", dirs: []string{"testdata/src/goroutine"}},
	{name: "suppress", rule: "errcheck", dirs: []string{"testdata/src/suppress"}},
	{name: "ctxloop", rule: "ctxloop", dirs: []string{"testdata/src/ctxloop"}},
	{name: "publish", rule: "publish", dirs: []string{"testdata/src/publish"}},
	{
		name: "boundalloc",
		rule: "boundalloc",
		cfg:  &Config{BoundAllocPkgs: []string{"src/boundalloc"}, BoundAllocClamps: []string{"PresizeCap", "GrowEarned"}},
		dirs: []string{"testdata/src/boundalloc"},
	},
	{
		name: "goroutinelife",
		rule: "goroutine",
		cfg:  &Config{GoroutineOwnedPkgs: []string{"src/goroutinelife"}},
		dirs: []string{"testdata/src/goroutinelife"},
	},
}

// runFixture loads the named fixture packages and applies one analyzer,
// returning the formatted findings with paths relative to this package.
func runFixture(t *testing.T, rule string, cfg *Config, dirs []string) []string {
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
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	base, err := filepath.Abs(".")
	if err != nil {
		t.Fatalf("Abs: %v", err)
	}
	var lines []string
	for _, d := range Analyze(loader.Fset, pkgs, []*Analyzer{a}, cfg) {
		lines = append(lines, FormatDiagnostic(loader.Fset, base, d))
	}
	return lines
}

func TestAnalyzersGolden(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.name, func(t *testing.T) {
			got := strings.Join(runFixture(t, tc.rule, tc.cfg, tc.dirs), "\n")
			if got != "" {
				got += "\n"
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatalf("writing golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings mismatch for %s\n--- got ---\n%s--- want ---\n%s", tc.name, got, want)
			}
		})
	}
}

// TestFixturesFlagAndClean asserts the structural contract of every
// fixture: at least one finding, all findings in flagged files, none in
// clean files.
func TestFixturesFlagAndClean(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.name, func(t *testing.T) {
			lines := runFixture(t, tc.rule, tc.cfg, tc.dirs)
			if len(lines) == 0 {
				t.Fatalf("fixture %s produced no findings", tc.name)
			}
			for _, line := range lines {
				if strings.Contains(line, "clean.go") {
					t.Errorf("finding in clean fixture: %s", line)
				}
			}
		})
	}
}

// TestSuppressionParsing pins the comment grammar: rule lists, the
// mandatory reason, and the "all" wildcard.
func TestSuppressionParsing(t *testing.T) {
	cases := []struct {
		text  string
		rules []string
		ok    bool
	}{
		{"//abcdlint:ignore errcheck -- reason", []string{"errcheck"}, true},
		{"// abcdlint:ignore errcheck -- reason", []string{"errcheck"}, true},
		{"//abcdlint:ignore a,b -- why not", []string{"a", "b"}, true},
		{"//abcdlint:ignore all -- everything", []string{"all"}, true},
		{"//abcdlint:ignore errcheck", nil, false},    // no reason
		{"//abcdlint:ignore errcheck --", nil, false}, // empty reason
		{"//abcdlint:ignore -- reason", nil, false},   // no rules
		{"// just a comment -- with dashes", nil, false},
	}
	for _, c := range cases {
		rules, reason, ok := parseSuppression(c.text)
		if ok && reason == "" {
			t.Errorf("parseSuppression(%q) accepted an empty reason", c.text)
		}
		if ok != c.ok {
			t.Errorf("parseSuppression(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if len(rules) != len(c.rules) {
			t.Errorf("parseSuppression(%q) = %v, want %v", c.text, rules, c.rules)
			continue
		}
		for i := range rules {
			if rules[i] != c.rules[i] {
				t.Errorf("parseSuppression(%q) = %v, want %v", c.text, rules, c.rules)
				break
			}
		}
	}
}

// TestModuleClean is the acceptance gate in test form: the shipped tree
// must carry zero unsuppressed findings.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	diags, fset, err := Run(loader.ModRoot, []string{"./..."}, All(), DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", FormatDiagnostic(fset, loader.ModRoot, d))
	}
}
