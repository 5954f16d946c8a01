package lint

// DetflowAnalyzer flags calls (and function-value references) whose
// target transitively reaches a wall-clock read or timer without going
// through the sim.Clock seam. The local wallclock analyzer catches a
// direct time.Now() in determinism-scoped code; detflow catches the
// laundered version — a helper that wraps time.Now(), or a call into
// another package whose implementation does. Direct references to the
// time package stay wallclock's job, so the two rules never report the
// same site twice.
//
// The legitimate route is the interface seam: code that takes its clock
// as a sim.Clock (or sim.Source) is invisible to this analyzer because
// interface dispatch resolves to no call edge. That asymmetry is the
// point — the contract is "time flows in through the seam", and the
// analyzer's blind spot is exactly the shape the contract permits.
var DetflowAnalyzer = &Analyzer{
	Name: "detflow",
	Doc:  "flags calls that transitively reach time.Now or timers outside the sim.Clock seam, naming the call chain",
	Run:  func(pass *Pass) { runFlow(pass, true) },
}

// RngflowAnalyzer is detflow's RNG twin: it flags calls whose target
// transitively constructs or consumes ad-hoc randomness instead of
// drawing from the seeded PCG seam. Packages that own generator
// construction (RngSealPackages) record no RNG taint, so calling into
// them is clean by definition.
var RngflowAnalyzer = &Analyzer{
	Name: "rngflow",
	Doc:  "flags calls that transitively reach global math/rand or ad-hoc generator construction, naming the call chain",
	Run:  func(pass *Pass) { runFlow(pass, false) },
}

func runFlow(pass *Pass, wallclock bool) {
	in := pass.Interp
	what, seam := "ad-hoc randomness", "draw from the seeded sim.Source stream"
	if wallclock {
		what, seam = "the wall clock", "take time through the sim.Clock seam"
	}
	for _, fn := range in.funcs {
		for _, e := range in.edges[fn] {
			if in.sums[e.callee].taint(wallclock) == nil {
				continue
			}
			verb := "call to"
			if e.isRef {
				verb = "reference to"
			}
			pass.Reportf(e.pos, "%s %s transitively reaches %s (%s); determinism-scoped code must %s",
				verb, shortFuncName(e.callee.FullName()), what, in.chain(e.callee, wallclock), seam)
		}
	}
}
