package lint

import (
	"strings"
	"testing"
)

// loadOne loads a single package from a temp module and returns its
// Interp built over a fresh summary table, unsealed.
func loadOne(t *testing.T, root, rel string) (*Loader, *Package, *Interp) {
	t.Helper()
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load([]string{"./" + rel})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("type errors: %v", pkg.TypeErrors)
	}
	return loader, pkg, NewInterp(loader.Fset, pkg.Files, pkg.Info, nil, false)
}

func summaryFor(t *testing.T, in *Interp, name string) *FuncSummary {
	t.Helper()
	for _, fn := range in.funcs {
		if fn.Name() == name {
			return in.sums[fn]
		}
	}
	t.Fatalf("no function %q in package", name)
	return nil
}

func TestInterpSummaries(t *testing.T) {
	root := writeTempModule(t, map[string]string{
		"go.mod": tempGoMod,
		"p.go": `package det

import "time"

type clock interface{ Now() time.Time }

type wall struct{}

func (wall) Now() time.Time { return time.Now() }

func direct() time.Time { return time.Now() }

func wrapped() time.Time { return direct() }

func twoHops() time.Time { return wrapped() }

// Interface dispatch is the seam: no edge, no taint, even though the
// only implementation in scope is tainted.
func seam(c clock) time.Time { return c.Now() }

// Mutual recursion must converge, with both halves tainted.
func pingA(n int) time.Time {
	if n == 0 {
		return direct()
	}
	return pingB(n - 1)
}

func pingB(n int) time.Time { return pingA(n) }

// A method value taken from a concrete receiver is a conservative edge.
func methodValue() func() time.Time {
	var w wall
	return w.Now
}

func pure(n int) int { return n * 2 }
`,
	})
	_, _, in := loadOne(t, root, "")

	cases := []struct {
		fn        string
		wallclock bool
		via       string // "" means direct (or don't care when !wallclock)
	}{
		{"direct", true, ""},
		{"wrapped", true, "example.test/det.direct"},
		{"twoHops", true, "example.test/det.wrapped"},
		{"pingA", true, "example.test/det.direct"},
		{"methodValue", true, "(example.test/det.wall).Now"},
	}
	for _, c := range cases {
		sum := summaryFor(t, in, c.fn)
		if (sum.Wallclock != nil) != c.wallclock {
			t.Errorf("%s: Wallclock = %+v, want tainted=%v", c.fn, sum.Wallclock, c.wallclock)
			continue
		}
		if c.wallclock {
			via := ""
			if sum.Wallclock.Via != nil {
				via = sum.Wallclock.Via.FullName()
			}
			if via != c.via {
				t.Errorf("%s: Via = %q, want %q", c.fn, via, c.via)
			}
		}
		if c.wallclock && sum.Wallclock.Root != "time.Now" {
			t.Errorf("%s: Root = %q, want time.Now", c.fn, sum.Wallclock.Root)
		}
	}
	// pingB's taint arrives through pingA; either hop is acceptable as
	// Via, but taint itself is mandatory (fixpoint convergence).
	if sum := summaryFor(t, in, "pingB"); sum.Wallclock == nil {
		t.Errorf("pingB: recursion did not converge to tainted")
	}
	for _, clean := range []string{"seam", "pure"} {
		if sum := summaryFor(t, in, clean); sum.Wallclock != nil {
			t.Errorf("%s: unexpectedly tainted via %+v", clean, sum.Wallclock)
		}
	}
}

func TestInterpExportSealsRng(t *testing.T) {
	root := writeTempModule(t, map[string]string{
		"go.mod": tempGoMod,
		"internal/sim/s.go": `package sim

import "math/rand/v2"

func New(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 1)) }
`,
	})
	loader, pkg, open := loadOne(t, root, "internal/sim")
	if sum := summaryFor(t, open, "New"); sum.Rng == nil {
		t.Errorf("unsealed summary lost Rng taint: %+v", sum)
	}
	// What a seam package exports to its callers is its entry in the
	// shared table: sealed, it carries no RNG taint.
	sealed := NewInterp(loader.Fset, pkg.Files, pkg.Info, nil, SealsRng(pkg.Rel))
	if sum := summaryFor(t, sealed, "New"); sum.Rng != nil {
		t.Errorf("sealed summary still carries Rng taint: %+v", sum.Rng)
	}
}

// TestCrossPackageTaint drives the full standalone pipeline: a helper
// package launders time.Now, a determinism-scoped package calls it, and
// detflow reports at the caller with the chain.
func TestCrossPackageTaint(t *testing.T) {
	root := writeTempModule(t, map[string]string{
		"go.mod": tempGoMod,
		"internal/util/u.go": `package util

import "time"

func WallNow() time.Time { return time.Now() }
`,
		"internal/core/c.go": `package core

import "example.test/det/internal/util"

func Stamp() int64 { return util.WallNow().UnixNano() }
`,
	})
	findings, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var wall, flow int
	for _, f := range findings {
		switch f.Analyzer {
		case "wallclock":
			wall++
			if !strings.Contains(f.Pos.Filename, "util") {
				t.Errorf("wallclock reported outside util: %s", f)
			}
		case "detflow":
			flow++
			if !strings.Contains(f.Pos.Filename, "core") {
				t.Errorf("detflow reported outside core: %s", f)
			}
			if !strings.Contains(f.Message, "util.WallNow → time.Now") {
				t.Errorf("detflow chain missing: %s", f.Message)
			}
		}
	}
	if wall != 1 || flow != 1 {
		t.Errorf("wallclock=%d detflow=%d, want 1 and 1; findings:\n%s",
			wall, flow, FormatFindings(findings, root))
	}
}

// TestRngSealAcrossPackages: calling into internal/sim (the PCG seam) is
// clean; calling an identical constructor in a non-seam package is not.
func TestRngSealAcrossPackages(t *testing.T) {
	const gen = `package %s

import "math/rand/v2"

func New(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 1)) }
`
	root := writeTempModule(t, map[string]string{
		"go.mod":             tempGoMod,
		"internal/sim/s.go":  strings.Replace(gen, "%s", "sim", 1),
		"internal/gens/g.go": strings.Replace(gen, "%s", "gens", 1),
		"internal/work/w.go": `package work

import (
	"example.test/det/internal/gens"
	"example.test/det/internal/sim"
)

func FromSeam(seed uint64) int { return sim.New(seed).IntN(6) }

func FromAdHoc(seed uint64) int { return gens.New(seed).IntN(6) }
`,
	})
	findings, err := Run(root, []string{"./internal/work"})
	if err != nil {
		t.Fatal(err)
	}
	var flows []string
	for _, f := range findings {
		if f.Analyzer == "rngflow" {
			flows = append(flows, f.Message)
		}
	}
	if len(flows) != 1 {
		t.Fatalf("rngflow findings = %d, want exactly 1 (the ad-hoc path):\n%s",
			len(flows), strings.Join(flows, "\n"))
	}
	if !strings.Contains(flows[0], "gens.New") {
		t.Errorf("rngflow flagged the wrong path: %s", flows[0])
	}
}

// TestRulesetSeamConsistency pins RngSealPackages to rngflow's Skip
// list: the seam definition and the scope exemption must not drift.
func TestRulesetSeamConsistency(t *testing.T) {
	rule := RuleByName("rngflow")
	if rule == nil {
		t.Fatal("no rngflow rule in Ruleset")
	}
	if got, want := strings.Join(rule.Scope.Skip, ","), strings.Join(RngSealPackages, ","); got != want {
		t.Errorf("rngflow Skip = %s, RngSealPackages = %s; keep them identical", got, want)
	}
	// detflow's scope must match wallclock's: same exemption rationale.
	dw, ww := RuleByName("detflow"), RuleByName("wallclock")
	if got, want := strings.Join(dw.Scope.Skip, ","), strings.Join(ww.Scope.Skip, ","); got != want {
		t.Errorf("detflow Skip = %s, wallclock Skip = %s; keep them identical", got, want)
	}
}

// TestShortFuncName pins the chain rendering's name trimming.
func TestShortFuncName(t *testing.T) {
	cases := map[string]string{
		"ellog/internal/realdev.Run":              "realdev.Run",
		"(*ellog/internal/realdev.Device).syncer": "(*realdev.Device).syncer",
		"(ellog/internal/lint.Scope).Applies":     "(lint.Scope).Applies",
		"time.Now":                                "time.Now",
		"main.main":                               "main.main",
	}
	for in, want := range cases {
		if got := shortFuncName(in); got != want {
			t.Errorf("shortFuncName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestInterpAllowSanitizesSummary: an //ellint:allow at the tainting
// site keeps the function's exported summary clean, so callers (and
// callers' callers) need no annotations of their own.
func TestInterpAllowSanitizesSummary(t *testing.T) {
	root := writeTempModule(t, map[string]string{
		"go.mod": tempGoMod,
		"p.go": `package det

import "time"

func audited() time.Time {
	return time.Now() //ellint:allow wallclock test: audited site
}

func caller() time.Time { return audited() }
`,
	})
	_, _, in := loadOne(t, root, "")
	if sum := summaryFor(t, in, "audited"); sum.Wallclock != nil {
		t.Errorf("audited: allow did not sanitize the root: %+v", sum.Wallclock)
	}
	if sum := summaryFor(t, in, "caller"); sum.Wallclock != nil {
		t.Errorf("caller: taint leaked through a sanitized summary: %+v", sum.Wallclock)
	}
}
