// Package linttest runs lint analyzers over fixture packages, in the style
// of golang.org/x/tools/go/analysis/analysistest but built on the standard
// library only.
//
// A fixture is a directory of Go files under internal/lint/testdata/src.
// Expected diagnostics are declared inline with want comments:
//
//	t := time.Now() // want `time\.Now reads the wall clock`
//
// Each backquoted or double-quoted string after "want" is a regular
// expression that must match a diagnostic reported on that line; every
// diagnostic must in turn be matched by a want. //ellint:allow suppressions
// are honored, so a fixture line carrying an allow annotation and no want
// asserts that suppression works.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"ellog/internal/lint"
)

// Run loads the fixture package in dir, applies a, and matches diagnostics
// against want comments.
func Run(t *testing.T, dir string, a *lint.Analyzer) {
	t.Helper()
	fset, files, in := loadFixture(t, dir)
	checkWants(t, fset, files, a.Name, lint.Check(a, in))
}

// RunCompare loads the fixture once, runs two analyzers over it, and
// hands their per-line diagnostic sets to check. Want comments are
// ignored: this exists to assert relationships between two analyzers'
// coverage (e.g. detflow flags laundered sites wallclock misses, and
// the two never double-report one line).
func RunCompare(t *testing.T, dir string, a, b *lint.Analyzer, check func(t *testing.T, aLines, bLines map[int]bool)) {
	t.Helper()
	fset, _, in := loadFixture(t, dir)
	lines := func(an *lint.Analyzer) map[int]bool {
		out := make(map[int]bool)
		for _, d := range lint.Check(an, in) {
			out[fset.Position(d.Pos).Line] = true
		}
		return out
	}
	check(t, lines(a), lines(b))
}

// loadFixture parses and type-checks the fixture package in dir and builds
// its interprocedural context. Fixtures are self-contained, so a fresh
// summary table is all the context they need.
func loadFixture(t *testing.T, dir string) (*token.FileSet, []*ast.File, *lint.Interp) {
	t.Helper()
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		t.Fatalf("parse fixture %s: %v", dir, err)
	}
	info := lint.NewInfo()
	var typeErrs []error
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	conf.Check("ellint.test/"+filepath.Base(dir), fset, files, info)
	if len(typeErrs) > 0 {
		t.Fatalf("fixture %s does not type-check: %v", dir, typeErrs)
	}
	return fset, files, lint.NewInterp(fset, files, info, nil, false)
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return files, nil
}

// wantRe matches one quoted or backquoted regexp in a want comment.
var wantRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

type wantKey struct {
	file string
	line int
}

// collectWants parses `// want "re" ...` comments into per-line regexps.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[wantKey][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 || strings.TrimSpace(text[:idx]) != "" {
					continue
				}
				pos := fset.Position(c.Pos())
				key := wantKey{pos.Filename, pos.Line}
				for _, m := range wantRe.FindAllStringSubmatch(text[idx+len("want "):], -1) {
					expr := m[1]
					if expr == "" {
						expr = m[2]
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, expr, err)
					}
					wants[key] = append(wants[key], re)
				}
				if len(wants[key]) == 0 {
					t.Fatalf("%s: want comment with no pattern", pos)
				}
			}
		}
	}
	return wants
}

func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, name string, diags []lint.Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, files)
	matched := make(map[wantKey][]bool)
	for key, res := range wants {
		matched[key] = make([]bool, len(res))
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := wantKey{pos.Filename, pos.Line}
		ok := false
		for i, re := range wants[key] {
			if !matched[key][i] && re.MatchString(d.Message) {
				matched[key][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected %s diagnostic: %s", pos, name, d.Message)
		}
	}
	keys := make([]wantKey, 0, len(wants))
	for key := range wants {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, key := range keys {
		for i, re := range wants[key] {
			if !matched[key][i] {
				t.Errorf("%s:%d: no %s diagnostic matching %q", key.file, key.line, name, re)
			}
		}
	}
}
