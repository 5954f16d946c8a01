package lint

import (
	"go/ast"
	"go/types"
)

// The rngsource rule keeps every random draw on a seeded, replayable
// stream. Two failure modes are caught:
//
//  1. Package-level math/rand and math/rand/v2 functions (rand.IntN,
//     rand.Float64, rand.Shuffle, ...) draw from the process-global source,
//     which Go seeds randomly at startup — a silent determinism leak.
//  2. Constructing a fresh generator (rand.New, rand.NewPCG,
//     rand.NewSource, rand.NewChaCha8) outside the packages that own
//     seeding (internal/sim, internal/fault — exempted by the driver
//     ruleset) detaches the draw from the engine's seed plumbing even when
//     the literal seed looks fixed: replay tooling can no longer reach it.
//
// Methods on a *rand.Rand value are fine — values handed out by
// sim.Engine.Rand() are already on the seeded stream.

var rngConstructors = map[string]bool{
	"New":        true,
	"NewPCG":     true,
	"NewSource":  true,
	"NewChaCha8": true,
	"NewZipf":    true,
}

// RngsourceAnalyzer implements the rngsource rule.
var RngsourceAnalyzer = &Analyzer{
	Name: "rngsource",
	Doc:  "forbids math/rand global functions and ad-hoc generator construction: every draw flows from a seeded engine stream",
	Run:  runRngsource,
}

func runRngsource(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if _, isSelection := pass.TypesInfo.Selections[sel]; isSelection {
				return true // method or field on a value, e.g. rng.IntN
			}
			fn, ok := objectOf(pass.TypesInfo, sel.Sel).(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if pkg := fn.Pkg().Path(); pkg != "math/rand" && pkg != "math/rand/v2" {
				return true
			}
			name := fn.Name()
			if rngConstructors[name] {
				pass.Reportf(sel.Pos(), "rand.%s constructs a generator outside the "+
					"seeded engine plumbing; draw from sim.Engine.Rand (RNG "+
					"construction lives in internal/sim and internal/fault)", name)
			} else {
				pass.Reportf(sel.Pos(), "rand.%s draws from the process-global source, "+
					"which is seeded nondeterministically; use the engine's "+
					"seeded stream (sim.Engine.Rand)", name)
			}
			return true
		})
	}
}
