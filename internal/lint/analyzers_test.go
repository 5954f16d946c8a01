package lint_test

import (
	"path/filepath"
	"testing"

	"ellog/internal/lint"
	"ellog/internal/lint/linttest"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestWallclock(t *testing.T) {
	linttest.Run(t, fixture("wallclock"), lint.WallclockAnalyzer)
}

func TestRngsource(t *testing.T) {
	linttest.Run(t, fixture("rngsource"), lint.RngsourceAnalyzer)
}

func TestMaporder(t *testing.T) {
	linttest.Run(t, fixture("maporder"), lint.MaporderAnalyzer)
}

// TestFloatorder checks float reduction in map order, which the maporder
// analyzer reports as an order-dependent effect.
func TestFloatorder(t *testing.T) {
	linttest.Run(t, fixture("floatorder"), lint.MaporderAnalyzer)
}

func TestNilgate(t *testing.T) {
	linttest.Run(t, fixture("nilgate"), lint.NilgateAnalyzer)
}

func TestDetflow(t *testing.T) {
	linttest.Run(t, fixture("detflow"), lint.DetflowAnalyzer)
}

func TestRngflow(t *testing.T) {
	linttest.Run(t, fixture("rngflow"), lint.RngflowAnalyzer)
}

func TestErrsink(t *testing.T) {
	linttest.Run(t, fixture("errsink"), lint.ErrsinkAnalyzer)
}

// TestDetflowCatchesWhatWallclockMisses is the acceptance case stated in
// the contract: on the detflow fixture, where time.Now is laundered
// through two wrapper hops, the old wallclock analyzer reports only the
// direct read inside the wrappers and provably misses every laundered
// call site, while detflow flags each one.
func TestDetflowCatchesWhatWallclockMisses(t *testing.T) {
	linttest.RunCompare(t, fixture("detflow"), lint.WallclockAnalyzer, lint.DetflowAnalyzer,
		func(t *testing.T, wallLines, flowLines map[int]bool) {
			for line := range flowLines {
				if wallLines[line] {
					t.Errorf("line %d: wallclock and detflow double-report the same site", line)
				}
			}
			if len(flowLines) == 0 {
				t.Fatalf("detflow reported nothing on its fixture")
			}
			if len(wallLines) == 0 {
				t.Fatalf("wallclock reported nothing: fixture lost its direct clock reads")
			}
		})
}
