// Command ellint enforces the repository's determinism contract (see
// DESIGN.md, "Determinism contract") with the rules in internal/lint.
//
//	go run ./cmd/ellint ./...   # report violations, exit 1 if any
//	go run ./cmd/ellint -h      # list the rules and where each applies
//
// It takes package patterns and nothing else. Exit status: 0 clean,
// 1 findings, 3 operational error (no module, type errors, import cycle).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"ellog/internal/lint"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	dir, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	findings, err := lint.Run(dir, flag.Args())
	if err != nil {
		fatal(err)
	}
	if len(findings) == 0 {
		return
	}
	fmt.Fprint(os.Stderr, lint.FormatFindings(findings, dir))
	byRule := make(map[string]int)
	for _, f := range findings {
		byRule[f.Analyzer]++
	}
	var parts []string
	for r, n := range byRule {
		parts = append(parts, fmt.Sprintf("%s %d", r, n))
	}
	sort.Strings(parts)
	fmt.Fprintf(os.Stderr, "ellint: %d determinism-contract violation(s): %s\n",
		len(findings), strings.Join(parts, ", "))
	os.Exit(1)
}

func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprintf(out, "usage: ellint [package pattern ...]\n\n"+
		"Rules (suppress a site with //ellint:allow <rule> <reason>):\n")
	for _, rule := range lint.Ruleset {
		var where []string
		if len(rule.Scope.Only) > 0 {
			where = append(where, "only in "+strings.Join(rule.Scope.Only, ", "))
		}
		if len(rule.Scope.Skip) > 0 {
			where = append(where, "not in "+strings.Join(rule.Scope.Skip, ", "))
		}
		if len(where) == 0 {
			where = append(where, "module-wide")
		}
		fmt.Fprintf(out, "  %-9s %s\n  %-9s [%s]\n", rule.Name, rule.Doc, "", strings.Join(where, "; "))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ellint:", err)
	os.Exit(3)
}
