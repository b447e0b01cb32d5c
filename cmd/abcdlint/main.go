// Command abcdlint runs GraphABCD's custom static-analysis suite: the
// concurrency and hot-path invariants the Go compiler cannot check
// (atomic-word access discipline, allocation-free inner loops — enforced
// transitively through the call graph, lock hygiene, dropped errors,
// goroutine spawn and lifetime rules, loop cancellability, publication
// ordering, decode-bounded allocation). See internal/analysis for the
// rules and DESIGN.md §7 for why each exists.
//
// Usage:
//
//	abcdlint [flags] [packages]
//
// Packages default to ./... . Flags:
//
//	-rules rule1,rule2   run a subset ("-rules list" prints the suite)
//	-list                list available rules and exit
//	-format text|json    finding output format (default text)
//	-ignored             audit every //abcdlint:ignore suppression and exit
//
// Hot code declares itself with //abcd:hotpath; there is no root list to
// configure. Exits 0 when no finding survives suppression, 1 on any
// finding (an //abcdlint:ignore naming no rule, or one silencing nothing
// outside a nested module such as bench/, is one), 2 on usage or load
// errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"graphabcd/internal/analysis"
)

func main() {
	rules := flag.String("rules", "", "comma-separated subset of rules to run, or \"list\" (default: all)")
	list := flag.Bool("list", false, "list available rules and exit")
	format := flag.String("format", "text", "output format: text or json")
	ignored := flag.Bool("ignored", false, "list every //abcdlint:ignore suppression and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: abcdlint [-rules rule1,rule2] [-format text|json] [-ignored] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list || *rules == "list" {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	switch *format {
	case "text", "json":
	default:
		fmt.Fprintf(os.Stderr, "abcdlint: unknown format %q (want text or json)\n", *format)
		os.Exit(2)
	}

	analyzers := analysis.All()
	if *rules != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*rules, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "abcdlint: unknown rule %q (try -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "abcdlint: %v\n", err)
		os.Exit(2)
	}
	res, err := analysis.RunResult(cwd, patterns, analyzers, analysis.DefaultConfig())
	if err != nil {
		fmt.Fprintf(os.Stderr, "abcdlint: %v\n", err)
		os.Exit(2)
	}
	rep := analysis.BuildReport(res, cwd)

	if *ignored {
		for _, s := range rep.Suppressions {
			fmt.Printf("%s:%d: [%s] %s\n", s.File, s.Line, strings.Join(s.Rules, ","), s.Reason)
		}
		fmt.Fprintf(os.Stderr, "abcdlint: %d suppression(s)\n", len(rep.Suppressions))
		return
	}

	if *format == "json" {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "abcdlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range rep.Findings {
			fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Rule, f.Message)
		}
	}
	if n := len(rep.Findings); n > 0 {
		fmt.Fprintf(os.Stderr, "abcdlint: %d finding(s)\n", n)
		os.Exit(1)
	}
}
