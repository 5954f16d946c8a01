package search

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"ellog/internal/core"
	"ellog/internal/harness"
	"ellog/internal/runner"
	"ellog/internal/sim"
)

// The searches end every probe at its verdict. The reference below is the
// same three searches written the slow, obvious way — one complete
// harness.Run per probe, one point at a time — and every size and every
// reported Run must come out identical.

// refSearch probes with complete runs. The pool only memoizes them (Run,
// never Probe): the descent and the scan revisit points.
type refSearch struct {
	base harness.Config
	full *runner.Pool
}

func (r refSearch) run(mode core.Mode, sizes []int, recirc bool) (bool, harness.Result) {
	cfg := r.base
	cfg.LM.Mode = mode
	cfg.LM.GenSizes = append([]int(nil), sizes...)
	cfg.LM.Recirculate = recirc
	res, err := r.full.Run(cfg)
	if err != nil {
		panic(err)
	}
	if res.LM.Elapsed != cfg.Workload.Runtime {
		panic(fmt.Sprintf("reference run ended at %v, horizon %v", res.LM.Elapsed, cfg.Workload.Runtime))
	}
	return !res.Insufficient(), res
}

// minLast is a plain binary search for the smallest sufficient last
// generation, after doubling hi until it is sufficient. It and the bracket
// search agree wherever sufficiency is monotone in size, which it is on the
// seeds below. (It is not everywhere: seed 23 with recirculation sustains
// 5+11 and 5+13 but not 5+12, and there the answer depends on the points
// probed — 4+12 from MinTwoGen, with or without the early stop.)
func (r refSearch) minLast(mode core.Mode, fixed []int, recirc bool, hi int) (int, harness.Result) {
	at := func(last int) (bool, harness.Result) {
		return r.run(mode, append(append([]int(nil), fixed...), last), recirc)
	}
	ok, best := at(hi)
	for !ok {
		hi *= 2
		ok, best = at(hi)
	}
	lo := MinBlocks
	for lo < hi {
		mid := (lo + hi) / 2
		if ok, res := at(mid); ok {
			hi, best = mid, res
		} else {
			lo = mid + 1
		}
	}
	return hi, best
}

// minTwoGen scans generation 0 upward one candidate at a time, with
// MinTwoGen's tie-break (the larger generation 0 wins) and stopping rule
// (four candidates in a row above the best).
func (r refSearch) minTwoGen(recirc bool) TwoGenResult {
	bytesPerSec := r.base.Workload.Mix.LogBytesPerSecond(r.base.Workload.ArrivalRate, core.DefaultTxRecSize)
	g0Max := int(math.Ceil(4*bytesPerSec/core.DefaultBlockPayload)) + MinBlocks
	best := TwoGenResult{Total: math.MaxInt}
	rising := 0
	for g0 := MinBlocks; g0 <= g0Max && rising < 4; g0++ {
		g1, run := r.minLast(core.ModeEphemeral, []int{g0}, recirc, 256)
		switch total := g0 + g1; {
		case total <= best.Total:
			best = TwoGenResult{Gen0: g0, Gen1: g1, Total: total, Run: run}
			rising = 0
		default:
			rising++
		}
	}
	return best
}

// minChain is MinChain's unit-step descent.
func (r refSearch) minChain(recirc bool, start []int) ([]int, harness.Result) {
	sizes := append([]int(nil), start...)
	ok, best := r.run(core.ModeEphemeral, sizes, recirc)
	for !ok {
		sizes[len(sizes)-1] *= 2
		ok, best = r.run(core.ModeEphemeral, sizes, recirc)
	}
	for improved := true; improved; {
		improved = false
		for i := range sizes {
			if sizes[i] <= MinBlocks {
				continue
			}
			sizes[i]--
			if ok, res := r.run(core.ModeEphemeral, sizes, recirc); ok {
				best, improved = res, true
			} else {
				sizes[i]++
			}
		}
	}
	return sizes, best
}

func TestSearchesMatchFullRunReference(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		base := shortBase(0.05, 20*sim.Second)
		base.Seed = seed
		ref := refSearch{base: base, full: runner.New(0)}
		pool := runner.New(0)

		fw, fwRun, err := MinFirewall(pool, base, 192)
		if err != nil {
			t.Fatal(err)
		}
		if wantFW, wantRun := ref.minLast(core.ModeFirewall, nil, false, 192); fw != wantFW || !reflect.DeepEqual(fwRun, wantRun) {
			t.Errorf("seed %d: MinFirewall found %d, the full-run reference %d (runs equal: %v)", seed, fw, wantFW, reflect.DeepEqual(fwRun, wantRun))
		}
		for _, recirc := range []bool{false, true} {
			two, err := MinTwoGen(pool, base, recirc, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.minTwoGen(recirc); !reflect.DeepEqual(two, want) {
				t.Errorf("seed %d recirc=%v: MinTwoGen found %d+%d, the full-run reference %d+%d (runs equal: %v)",
					seed, recirc, two.Gen0, two.Gen1, want.Gen0, want.Gen1, reflect.DeepEqual(two.Run, want.Run))
			}
		}
		start := []int{16, 12, 12}
		chain, chainRun, err := MinChain(pool, base, true, start)
		if err != nil {
			t.Fatal(err)
		}
		if want, wantRun := ref.minChain(true, start); !reflect.DeepEqual(chain, want) || !reflect.DeepEqual(chainRun, wantRun) {
			t.Errorf("seed %d: MinChain found %v, the full-run reference %v (runs equal: %v)", seed, chain, want, reflect.DeepEqual(chainRun, wantRun))
		}
	}
}
