// Package lint is a self-contained static-analysis suite that mechanically
// enforces the repository's determinism contract (see DESIGN.md, section
// "Determinism contract").
//
// The artifact's results are only trustworthy because a (seed, config) pair
// replays bit-identically. Earlier PRs promised that by convention ("all
// hooks nil-gated", "byte-identical parallel vs sequential") and the
// per-type map-order bug fixed in PR 4 shows convention leaks. This package
// turns the contract into machine-checked rules:
//
//	wallclock — no wall-clock time in simulator code (virtual clock only)
//	rngsource — every random draw flows from a seeded engine stream
//	maporder  — no order-dependent effects inside map iteration
//	nilgate   — optional hook fields are nil-gated at every call site
//	detflow   — no transitive wall-clock reach outside the sim.Clock seam
//	rngflow   — no transitive ad-hoc randomness outside the PCG seam
//	errsink   — no discarded errors on the durability path
//
// detflow and rngflow sit on an interprocedural layer (interp.go) that
// builds a call graph and per-function summaries; the driver (driver.go)
// fills one summary table for the whole run, dependencies first.
//
// The framework mirrors the shape of the golang.org/x/tools/go/analysis
// API (Analyzer, Pass, Diagnostic) but is built purely on the standard
// library's go/ast, go/build and go/types so the module keeps zero external
// dependencies. Analyzers are pure rules; which packages each rule applies
// to is a driver concern (see ruleset.go), and individual sites are
// suppressed with an explicit comment (see suppress.go):
//
//	//ellint:allow <rule>[,<rule>...] <reason>
//
// Run the suite with `go run ./cmd/ellint ./...`.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one rule of the determinism contract.
type Analyzer struct {
	// Name identifies the rule in diagnostics and in //ellint:allow
	// suppressions. Lower-case, no spaces.
	Name string

	// Doc is one sentence: what the rule forbids and why the determinism
	// contract needs it.
	Doc string

	// Run applies the rule to a single type-checked package and reports
	// findings through the pass.
	Run func(*Pass)
}

// A Pass provides one analyzer run with a single type-checked package and
// its interprocedural context, and collects its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	TypesInfo *types.Info
	Interp    *Interp

	diags []Diagnostic
}

// Reportf records a diagnostic at pos with a formatted message, stamping
// the analyzer's name as its category.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Category string // analyzer name
	Message  string
}

// Check runs analyzer a over the package behind in and returns its
// diagnostics with //ellint:allow suppressions already applied.
func Check(a *Analyzer, in *Interp) []Diagnostic {
	pass := &Pass{Analyzer: a, Fset: in.fset, Files: in.files, TypesInfo: in.info, Interp: in}
	a.Run(pass)
	return in.filter(pass.diags)
}

// NewInfo returns a types.Info with every map analyzers rely on allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
