package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "suppress_fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func TestAllowParsing(t *testing.T) {
	fset, f := parseOne(t, `package p

func f() {
	_ = 1 //ellint:allow wallclock harness timing
	_ = 2 //ellint:allow wallclock,maporder two rules, one comment
	//ellint:allow rngsource on the line above the site
	_ = 3
	_ = 4 // ordinary comment, no allow
	//ellint:allow
	_ = 5
	_ = 6 //ellint:allow wallclock,nosuchrule a typo beside a real rule
}
`)
	allows, unknown := collectAllows(fset, []*ast.File{f})
	set := allows["suppress_fixture.go"]
	if set == nil {
		t.Fatal("no allows collected")
	}
	cases := []struct {
		line int
		rule string
		want bool
	}{
		{4, "wallclock", true},
		{4, "maporder", false},
		{5, "wallclock", true},
		{5, "maporder", true},
		{7, "rngsource", true}, // own-line comment covers the next line
		{6, "rngsource", true}, // ... and its own line
		{8, "wallclock", false},
		{10, "rngsource", false}, // bare allow with no rule list is inert
		{11, "wallclock", true},
		{11, "nosuchrule", false},
	}
	for _, c := range cases {
		if got := set[c.line][c.rule]; got != c.want {
			t.Errorf("line %d rule %s: allowed=%v, want %v", c.line, c.rule, got, c.want)
		}
	}
	// A rule name Ruleset does not define is reported, once, where the
	// comment is.
	if len(unknown) != 1 || fset.Position(unknown[0].Pos).Line != 11 ||
		unknown[0].Category != "allow" || !strings.Contains(unknown[0].Message, `"nosuchrule"`) {
		t.Errorf("unknown-rule diagnostics = %+v, want one for nosuchrule on line 11", unknown)
	}
}

func TestFilterDropsSuppressed(t *testing.T) {
	fset, f := parseOne(t, `package p

func f() {
	_ = 1 //ellint:allow wallclock reason
	_ = 2
}
`)
	pos := func(line int) token.Pos {
		return fset.File(f.Pos()).LineStart(line)
	}
	diags := []Diagnostic{
		{Pos: pos(4), Category: "wallclock", Message: "suppressed"},
		{Pos: pos(4), Category: "maporder", Message: "different rule, kept"},
		{Pos: pos(5), Category: "wallclock", Message: "other line, kept"},
	}
	got := NewInterp(fset, []*ast.File{f}, NewInfo(), nil, false).filter(diags)
	if len(got) != 2 {
		t.Fatalf("Filter kept %d diagnostics, want 2: %v", len(got), got)
	}
	for _, d := range got {
		if d.Message == "suppressed" {
			t.Errorf("suppressed diagnostic survived: %+v", d)
		}
	}
}

func TestScopeApplies(t *testing.T) {
	cases := []struct {
		scope Scope
		rel   string
		want  bool
	}{
		{Scope{}, "", true},
		{Scope{}, "internal/sim", true},
		{Scope{Skip: []string{"internal/sim"}}, "internal/sim", false},
		{Scope{Skip: []string{"internal/sim"}}, "internal/sim/sub", false},
		{Scope{Skip: []string{"internal/sim"}}, "internal/simulator", true},
		{Scope{Skip: []string{"internal/sim"}}, "internal/fault", true},
		{Scope{Only: []string{"internal/metrics"}}, "internal/metrics", true},
		{Scope{Only: []string{"internal/metrics"}}, "internal/obs", false},
		{Scope{Only: []string{"internal"}, Skip: []string{"internal/sim"}}, "internal/sim", false},
		{Scope{Only: []string{"internal"}, Skip: []string{"internal/sim"}}, "cmd/elsim", false},
	}
	for _, c := range cases {
		if got := c.scope.Applies(c.rel); got != c.want {
			t.Errorf("Scope{Only:%v Skip:%v}.Applies(%q) = %v, want %v",
				c.scope.Only, c.scope.Skip, c.rel, got, c.want)
		}
	}
}

func TestRulesetNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, rule := range Ruleset {
		if rule.Name == "" || rule.Doc == "" || rule.Run == nil {
			t.Errorf("rule %q incompletely declared", rule.Name)
		}
		if seen[rule.Name] {
			t.Errorf("duplicate rule name %q", rule.Name)
		}
		seen[rule.Name] = true
	}
	if !seen["wallclock"] || !seen["rngsource"] || !seen["maporder"] || !seen["nilgate"] {
		t.Errorf("ruleset missing a contract rule: %v", seen)
	}
	if r := RuleByName("maporder"); r == nil || r.Name != "maporder" {
		t.Errorf("RuleByName(maporder) = %v", r)
	}
	if r := RuleByName("nope"); r != nil {
		t.Errorf("RuleByName(nope) = %v, want nil", r)
	}
}
