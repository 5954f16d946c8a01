package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
)

// The driver behind cmd/ellint: load packages, summarize them, apply the
// ruleset, collect findings.

// A Finding is one reported diagnostic with a resolved position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Run loads the packages matched by patterns under dir's module and
// applies the full ruleset, returning findings sorted by position. An
// //ellint:allow that names no rule in Ruleset is a finding too. Type
// errors in any loaded package abort the run: analyzer output over broken
// code is unreliable.
func Run(dir string, patterns []string) ([]Finding, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Load(patterns)
	if err != nil {
		return nil, err
	}
	// One summary table serves the whole run. The loader lists every
	// package after its module imports, so a package's callees are
	// summarized before it and cross-package taint (experiments →
	// realdev → time.Now) resolves whatever order the patterns matched in.
	sums := make(map[*types.Func]*FuncSummary)
	interps := make(map[*Package]*Interp, len(loader.order))
	for _, pkg := range loader.order {
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("%s: type errors: %v", pkg.PkgPath, pkg.TypeErrors[0])
		}
		interps[pkg] = NewInterp(loader.Fset, pkg.Files, pkg.Info, sums, SealsRng(pkg.Rel))
	}
	var findings []Finding
	report := func(diags []Diagnostic) {
		for _, d := range diags {
			findings = append(findings, Finding{Analyzer: d.Category, Pos: loader.Fset.Position(d.Pos), Message: d.Message})
		}
	}
	for _, pkg := range pkgs {
		in := interps[pkg]
		report(in.badAllows)
		for _, rule := range Ruleset {
			if rule.Scope.Applies(pkg.Rel) {
				report(Check(rule.Analyzer, in))
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// FormatFindings renders findings one per line, relative to dir when
// possible, for terminal output.
func FormatFindings(findings []Finding, dir string) string {
	var b strings.Builder
	for _, f := range findings {
		if rel, ok := strings.CutPrefix(f.Pos.Filename, dir+string(os.PathSeparator)); ok {
			f.Pos.Filename = rel
		}
		fmt.Fprintln(&b, f)
	}
	return b.String()
}
