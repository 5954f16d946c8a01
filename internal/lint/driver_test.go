package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// writeTempModule lays out a throwaway module and returns its root.
func writeTempModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const tempGoMod = "module example.test/det\n\ngo 1.22\n"

func TestRunFindsAndScopesViolations(t *testing.T) {
	root := writeTempModule(t, map[string]string{
		"go.mod": tempGoMod,
		// Root package: one wallclock violation, one suppressed.
		"clock.go": `package det

import "time"

func Wall() time.Time { return time.Now() }

func Allowed() time.Time {
	return time.Now() //ellint:allow wallclock test fixture
}
`,
		// internal/sim is exempt from rngsource by the ruleset.
		"internal/sim/sim.go": `package sim

import "math/rand/v2"

func New(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 1)) }
`,
		// Another package drawing from the global source: flagged.
		"internal/work/work.go": `package work

import "math/rand/v2"

func Draw() int { return rand.IntN(6) }
`,
	})
	findings, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		rel, _ := filepath.Rel(root, f.Pos.Filename)
		got = append(got, f.Analyzer+"@"+filepath.ToSlash(rel))
	}
	want := []string{"wallclock@clock.go", "rngsource@internal/work/work.go"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("findings = %v, want %v", got, want)
	}
}

// TestRealBackendScopeExemptions pins the declarative exemption for the
// real-backend packages: internal/realtime, internal/realdev and
// cmd/elreal exist to bind the model to the wall clock, so wallclock and
// rngsource do not apply there — while an identical file anywhere else in
// the module is still flagged, and the other analyzers still reach the
// exempt packages.
func TestRealBackendScopeExemptions(t *testing.T) {
	const wallAndRand = `package p

import (
	"math/rand/v2"
	"time"
)

func Now() time.Time { return time.Now() }

func Draw() int { return rand.IntN(6) }
`
	root := writeTempModule(t, map[string]string{
		"go.mod": tempGoMod,
		// Exempt by scope: no wallclock or rngsource findings.
		"internal/realtime/loop.go": strings.Replace(wallAndRand, "package p", "package realtime", 1),
		"internal/realdev/dev.go":   strings.Replace(wallAndRand, "package p", "package realdev", 1),
		"cmd/elreal/main.go":        strings.Replace(wallAndRand, "package p", "package main", 1) + "\nfunc main() {}\n",
		// The same code outside the exempt prefixes is still a violation.
		"internal/model/model.go": strings.Replace(wallAndRand, "package p", "package model", 1),
		// The exemption is per-rule, not per-package: maporder still
		// applies inside internal/realdev.
		"internal/realdev/dump.go": `package realdev

import "fmt"

func Dump(counts map[string]int) {
	for name, n := range counts {
		fmt.Println(name, n)
	}
}
`,
	})
	findings, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		rel, _ := filepath.Rel(root, f.Pos.Filename)
		got = append(got, f.Analyzer+"@"+filepath.ToSlash(rel))
	}
	want := []string{
		"wallclock@internal/model/model.go",
		"rngsource@internal/model/model.go",
		"maporder@internal/realdev/dump.go",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("findings = %v, want %v", got, want)
	}
}

// TestLoaderHonorsBuildConstraints loads a package split across GOOS
// build tags the way internal/realdev splits its O_DIRECT open path. A
// tag-blind loader would see both halves and report a redeclaration.
func TestLoaderHonorsBuildConstraints(t *testing.T) {
	root := writeTempModule(t, map[string]string{
		"go.mod": tempGoMod,
		"split/doc.go": `package split

const base = flag
`,
		"split/flag_" + runtime.GOOS + ".go": `package split

const flag = 1
`,
		"split/flag_other.go": "//go:build !" + runtime.GOOS + "\n\npackage split\n\nconst flag = 0\n",
	})
	findings, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatalf("tag-split package did not load cleanly: %v", err)
	}
	if len(findings) != 0 {
		t.Errorf("unexpected findings: %v", findings)
	}
}

func TestRunRejectsTypeErrors(t *testing.T) {
	root := writeTempModule(t, map[string]string{
		"go.mod":    tempGoMod,
		"broken.go": "package det\n\nfunc f() { undefined() }\n",
	})
	if _, err := Run(root, []string{"./..."}); err == nil {
		t.Fatal("Run succeeded on a package with type errors")
	}
}

// TestUnknownAllowIsAFinding: an //ellint:allow naming a rule Ruleset
// does not define suppresses nothing, so it is reported rather than left
// to claim an audit no rule performs — in every package, whatever the
// rules' scopes, while the known rule in the same list still suppresses.
func TestUnknownAllowIsAFinding(t *testing.T) {
	root := writeTempModule(t, map[string]string{
		"go.mod": tempGoMod,
		"clock.go": `package det

import "time"

func Stamp() time.Time {
	return time.Now() //ellint:allow wallclock,wallclok typo beside a real rule
}
`,
		// realdev is outside wallclock's scope; the allow check is not.
		"internal/realdev/d.go": `package realdev

//ellint:allow floatorder a rule that no longer exists
func Sum(xs []float64) float64 { return xs[0] }
`,
	})
	findings, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s@%d", f.Analyzer, f.Pos.Line))
		if !strings.Contains(f.Message, "unknown rule") {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if want := "allow@6 allow@3"; strings.Join(got, " ") != want {
		t.Errorf("findings = %v, want %s", got, want)
	}
}

// TestRepoIsCleanUnderRuleset is the acceptance criterion as a test: the
// shipped tree must satisfy the determinism contract with only its audited
// //ellint:allow annotations. Loading the full module type-checks the
// standard library from source, so keep it out of -short runs.
func TestRepoIsCleanUnderRuleset(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load is slow; run without -short")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(wd, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("determinism contract violated:\n%s", FormatFindings(findings, wd))
	}
}
