package lint

import "strings"

// The analyzers are pure rules; this file is the policy layer deciding
// where each rule applies. Scoping is by import path relative to the
// module root, so the table reads like the contract in DESIGN.md.
//
// Test files (_test.go) are excluded wholesale by the driver: tests may
// construct fixed-seed RNGs and wall-time themselves freely, and test
// determinism is enforced dynamically by the determinism suites
// (internal/search/determinism_test.go, internal/experiments/...). The
// contract below is about shipped simulator code.

// A Scope restricts an analyzer to (Only) or away from (Skip) package
// path prefixes relative to the module root. Empty means module-wide.
type Scope struct {
	Only []string // if non-empty, only packages under these prefixes
	Skip []string // packages under these prefixes are exempt
}

// Applies reports whether a package at module-relative path rel is in
// scope. The module root itself is rel "".
func (s Scope) Applies(rel string) bool {
	if len(s.Only) > 0 {
		ok := false
		for _, p := range s.Only {
			if underPrefix(rel, p) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for _, p := range s.Skip {
		if underPrefix(rel, p) {
			return false
		}
	}
	return true
}

func underPrefix(rel, prefix string) bool {
	return rel == prefix || strings.HasPrefix(rel, prefix+"/")
}

// A Rule pairs an analyzer with the scope it is enforced in.
type Rule struct {
	*Analyzer
	Scope Scope
}

// Ruleset is the determinism contract: every analyzer, and where it
// applies. Order is the reporting order. Empty scopes are module-wide,
// so new packages — internal/multilog and its 2PC overlay among them —
// are covered automatically; only add Skip entries for packages that
// legitimately own a source the rest of the module must not touch.
var Ruleset = []Rule{
	// Wall-clock reads are forbidden module-wide, with one structural
	// exemption: the real-backend packages exist to bind the model to the
	// wall clock (internal/realtime is a wall-clock sim.Source;
	// internal/realdev fsyncs real files; internal/obs/live is the live
	// metrics registry those goroutines update and the HTTP endpoint that
	// serves it; cmd/elreal drives them), so the rule cannot apply there
	// by construction. Note internal/obs itself is NOT exempt: the probe
	// sampler runs in both clock domains and must stay deterministic. The
	// CLI harnesses in cmd/ that merely wall-time whole runs for operator
	// feedback still carry //ellint:allow wallclock annotations rather
	// than a package-level exemption, so each of those sites is an
	// audited decision.
	{WallclockAnalyzer, Scope{Skip: []string{"internal/realdev", "internal/realtime", "internal/obs/live", "cmd/elreal"}}},

	// internal/sim owns the seeded engine streams and internal/fault
	// derives its plan stream from the config seed; everywhere else must
	// draw through them. Under PDES this rule carries extra weight: each
	// logical process owns exactly one stream (lp.Rand(), the LP engine's
	// PCG), and any ad-hoc source in model code would be shared across LP
	// goroutines — both a data race and a scheduling-order dependence.
	// The real-backend packages are exempt for the same reason as above:
	// internal/realtime seeds its own PCG to stand in for the engine's.
	{RngsourceAnalyzer, Scope{Skip: []string{"internal/sim", "internal/fault", "internal/realdev", "internal/realtime", "cmd/elreal"}}},

	{MaporderAnalyzer, Scope{}},
	{NilgateAnalyzer, Scope{}},

	// The interprocedural rules. detflow/rngflow inherit their local
	// twins' scopes: the wall-clock-owning packages cannot meaningfully
	// be forbidden from *reaching* the wall clock, and the RNG-owning
	// packages are the seam itself. Note the asymmetry in how taint
	// crosses INTO the exempt packages' callers: the RngSealPackages
	// record no RNG taint (calling sim/fault is how everyone is supposed
	// to obtain randomness), while wall-clock taint is never stripped —
	// the legitimate route to the clock is the sim.Clock interface, so a
	// concrete call chain from a determinism-scoped package into
	// realtime/realdev is a genuine violation and reports at the first
	// in-scope call site.
	{DetflowAnalyzer, Scope{Skip: []string{"internal/realdev", "internal/realtime", "internal/obs/live", "cmd/elreal"}}},
	{RngflowAnalyzer, Scope{Skip: []string{"internal/sim", "internal/fault", "internal/realdev", "internal/realtime", "cmd/elreal"}}},

	// errsink is scoped to the packages that own the durability path;
	// elsewhere a dropped Close error is a style question, not a contract
	// violation.
	{ErrsinkAnalyzer, Scope{Only: []string{"internal/realdev", "internal/realtime", "cmd/elreal"}}},
}

// RngSealPackages are the module-relative packages that own seeded
// generator construction: they record no RNG taint (see NewInterp),
// because calling into them is the sanctioned way to obtain randomness.
// Kept in sync with rngflow's Skip list by TestRulesetSeamConsistency.
var RngSealPackages = []string{"internal/sim", "internal/fault", "internal/realdev", "internal/realtime", "cmd/elreal"}

// SealsRng reports whether a package at module-relative path rel is
// part of the RNG seam.
func SealsRng(rel string) bool {
	for _, p := range RngSealPackages {
		if underPrefix(rel, p) {
			return true
		}
	}
	return false
}

// RuleByName returns the rule with the given analyzer name, or nil.
func RuleByName(name string) *Rule {
	for i := range Ruleset {
		if Ruleset[i].Name == name {
			return &Ruleset[i]
		}
	}
	return nil
}

// ruleNames lists the Ruleset's rule names, in reporting order.
func ruleNames() string {
	names := make([]string, len(Ruleset))
	for i, r := range Ruleset {
		names[i] = r.Name
	}
	return strings.Join(names, ", ")
}
