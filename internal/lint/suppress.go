package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Suppression syntax
//
// A site that deliberately breaks a rule carries an explicit annotation:
//
//	start := time.Now() //ellint:allow wallclock harness wall-clock timing
//
// or, on its own line immediately above the flagged statement:
//
//	//ellint:allow maporder output feeds a set, order is irrelevant
//	for k := range m { ... }
//
// The first whitespace-delimited token after "ellint:allow" is a
// comma-separated list of rule names; everything after it is a free-form
// reason (strongly encouraged — the annotation is the audit trail for why
// the determinism contract tolerates the site). A trailing allow comment
// suppresses matching diagnostics on its own line only; a standalone allow
// comment also covers the line directly below it, so two consecutive
// violations never share one annotation by accident.

const allowPrefix = "ellint:allow"

// allowSet records, per file line, which rules are allowed there.
type allowSet map[int]map[string]bool

// collectAllows scans the comments of files for //ellint:allow annotations.
// It also returns a diagnostic for every rule name an annotation gives
// that Ruleset does not define: a typo'd or retired rule suppresses
// nothing, yet the comment claims an audit no rule performs.
func collectAllows(fset *token.FileSet, files []*ast.File) (map[string]allowSet, []Diagnostic) {
	byFile := make(map[string]allowSet)
	var unknown []Diagnostic
	for _, f := range files {
		code := codeLines(fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(text[len(allowPrefix):])
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				set := byFile[pos.Filename]
				if set == nil {
					set = make(allowSet)
					byFile[pos.Filename] = set
				}
				lines := []int{pos.Line}
				if !code[pos.Line] {
					// Standalone comment: it annotates the line below.
					lines = append(lines, pos.Line+1)
				}
				for _, rule := range strings.Split(fields[0], ",") {
					rule = strings.TrimSpace(rule)
					if rule == "" {
						continue
					}
					if RuleByName(rule) == nil {
						unknown = append(unknown, Diagnostic{Pos: c.Pos(), Category: "allow",
							Message: fmt.Sprintf("//ellint:allow names unknown rule %q, so it suppresses nothing (rules: %s)", rule, ruleNames())})
						continue
					}
					for _, line := range lines {
						m := set[line]
						if m == nil {
							m = make(map[string]bool)
							set[line] = m
						}
						m[rule] = true
					}
				}
			}
		}
	}
	return byFile, unknown
}

// codeLines marks the lines of f that contain non-comment tokens, so a
// trailing allow comment can be told apart from a standalone one.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil:
			return true
		case *ast.Comment, *ast.CommentGroup:
			return false
		}
		lines[fset.Position(n.Pos()).Line] = true
		lines[fset.Position(n.End()).Line] = true
		return true
	})
	return lines
}

// filter drops diagnostics covered by //ellint:allow annotations.
func (in *Interp) filter(diags []Diagnostic) []Diagnostic {
	kept := diags[:0]
	for _, d := range diags {
		if !in.allowedAt(d.Pos, d.Category) {
			kept = append(kept, d)
		}
	}
	return kept
}
