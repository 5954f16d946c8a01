package lint

import (
	"go/ast"
)

// wallclockForbidden lists the package time functions that observe or wait
// on the machine's clock. Simulator code must derive every timestamp and
// delay from the virtual clock (sim.Engine / sim.Time): a wall-clock read
// makes run output depend on host speed and scheduling, which breaks the
// (seed, config) → bit-identical-replay contract. Pure value constructors
// (time.Date, time.Unix) and conversions are untouched — they are
// deterministic functions of their arguments.
var wallclockForbidden = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// WallclockAnalyzer implements the wallclock rule.
var WallclockAnalyzer = &Analyzer{
	Name: "wallclock",
	Doc:  "forbids wall-clock reads and sleeps (time.Now, time.Since, time.Sleep, timers): simulator code uses the virtual clock",
	Run:  runWallclock,
}

func runWallclock(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := objectOf(pass.TypesInfo, sel.Sel)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			if !wallclockForbidden[obj.Name()] {
				return true
			}
			pass.Reportf(sel.Pos(), "time.%s reads the wall clock; simulated "+
				"code must use the virtual clock (sim.Engine.Now / scheduled events)", obj.Name())
			return true
		})
	}
}
