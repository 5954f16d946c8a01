package harness

import (
	"reflect"
	"testing"

	"ellog/internal/core"
	"ellog/internal/sim"
)

// TestProbeVerdictMatchesFullRun: ending a run at its verdict never changes
// the verdict. For FW and EL, on three seeds, over sizes straddling the
// minimum, Probe agrees with a complete Run; where the configuration is
// sufficient the two Results are the same run, field for field; where it is
// not, Probe stopped early — which is the point — with the event of the
// first kill.
func TestProbeVerdictMatchesFullRun(t *testing.T) {
	type point struct {
		mode   core.Mode
		sizes  []int
		recirc bool
	}
	var grid []point
	for _, n := range []int{40, 80, 100, 110, 116, 120, 124, 128, 134, 150} {
		grid = append(grid, point{core.ModeFirewall, []int{n}, false})
	}
	for _, g1 := range []int{4, 8, 10, 12, 14, 16, 18, 22} {
		grid = append(grid, point{core.ModeEphemeral, []int{18, g1}, false})
		grid = append(grid, point{core.ModeEphemeral, []int{18, g1}, true})
	}
	for _, seed := range []uint64{1, 7, 23} {
		verdicts := map[core.Mode][2]int{}
		for _, pt := range grid {
			cfg := shortPaperConfig(0.05, pt.mode, pt.sizes, pt.recirc)
			cfg.Seed = seed
			cfg.Workload.Runtime = 30 * sim.Second
			full, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			probe, err := Probe(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if probe.Insufficient() != full.Insufficient() {
				t.Fatalf("seed %d %v %v recirc=%v: probe says insufficient=%v, the full run %v",
					seed, pt.mode, pt.sizes, pt.recirc, probe.Insufficient(), full.Insufficient())
			}
			v := verdicts[pt.mode]
			if full.Insufficient() {
				v[0]++
				if probe.LM.Elapsed >= cfg.Workload.Runtime {
					t.Errorf("seed %d %v %v: insufficient probe ran to the horizon", seed, pt.mode, pt.sizes)
				}
				if probe.LM.Begins > full.LM.Begins || probe.LM.Killed > full.LM.Killed {
					t.Errorf("seed %d %v %v: the probe is not a prefix of the full run", seed, pt.mode, pt.sizes)
				}
			} else {
				v[1]++
				if !reflect.DeepEqual(probe, full) {
					t.Errorf("seed %d %v %v: a sufficient probe differs from the full run:\n%s\n%s",
						seed, pt.mode, pt.sizes, probe.LM, full.LM)
				}
			}
			verdicts[pt.mode] = v
		}
		for mode, v := range verdicts {
			if v[0] == 0 || v[1] == 0 {
				t.Fatalf("seed %d %v: grid does not straddle the minimum (%d insufficient, %d sufficient)", seed, mode, v[0], v[1])
			}
		}
	}
}
