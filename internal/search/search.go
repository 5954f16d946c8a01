// Package search finds minimum disk-space configurations the way the paper
// does: "for both FW and EL, we continued to run simulations and reduce the
// disk space until we observed transactions being killed. Hence, these
// results reflect the minimum disk space requirements ... in which no
// transaction is killed" (section 4).
//
// A configuration is sufficient when the run completes with no kills and
// no emergency space. Sufficiency is monotone in practice (more blocks
// never hurt), so single dimensions are bracket searched; the
// two-generation EL split is found by scanning generation 0 and bracket
// searching generation 1 for each candidate, keeping the smallest total.
//
// Every function takes an optional *runner.Pool. With a pool, independent
// probes fan out across its workers: the bracket search probes several
// interior points per round, the generation-0 scan advances in waves, and
// repeated probe points are answered from the pool's cache. The fan-out
// widths are fixed constants — never derived from the worker count — and
// probe outcomes are folded in index order, so the result is byte-for-byte
// identical whether the pool has one worker, sixteen, or is nil (strictly
// sequential).
package search

import (
	"fmt"
	"math"

	"ellog/internal/core"
	"ellog/internal/harness"
	"ellog/internal/runner"
)

// MinBlocks is the smallest workable generation: the threshold gap k=2,
// one filling block, and one block of slack.
const MinBlocks = 4

// bracketWidth is how many interior points one bracket round probes
// concurrently, and waveWidth how many generation-0 candidates one
// MinTwoGen wave scans. Constants — not worker-count-derived — so the
// probe schedule (and therefore the result) is independent of parallelism.
const (
	bracketWidth = 4
	waveWidth    = 4
)

// Probe runs one configuration with the given generation sizes and reports
// whether it sustained the workload. The run ends at its verdict
// (runner.Pool.Probe): the Result of a sufficient configuration is that of
// a complete run and is what the searches report; the Result returned with
// ok == false covers only the run up to the first kill and carries nothing
// but that verdict.
func Probe(p *runner.Pool, base harness.Config, mode core.Mode, sizes []int, recirc bool) (bool, harness.Result, error) {
	cfg := base
	cfg.LM.Mode = mode
	cfg.LM.GenSizes = append([]int(nil), sizes...)
	cfg.LM.Recirculate = recirc
	res, err := p.Probe(cfg)
	if err != nil {
		return false, res, err
	}
	return !res.Insufficient(), res, nil
}

// MinFirewall searches the minimum single-queue size for the FW technique,
// returning the size and the run at that size.
func MinFirewall(p *runner.Pool, base harness.Config, hi int) (int, harness.Result, error) {
	return MinLastGen(p, base, core.ModeFirewall, nil, false, hi)
}

// MinLastGen finds the minimum size of the generation after the fixed ones
// (pass fixed=nil for a single-generation log). recirc controls
// recirculation in that last generation.
//
// The search brackets: each round probes up to bracketWidth points of the
// open interval concurrently, then moves hi down to the smallest
// sufficient point and lo up past the largest insufficient one. Once the
// interval is narrow the round enumerates it exhaustively, so the returned
// size is the exact minimum — the same one the one-point-per-round binary
// search finds.
func MinLastGen(p *runner.Pool, base harness.Config, mode core.Mode, fixed []int, recirc bool, hi int) (int, harness.Result, error) {
	if hi < MinBlocks {
		hi = MinBlocks
	}
	sizes := func(last int) []int {
		out := append([]int(nil), fixed...)
		return append(out, last)
	}
	// Grow the upper bound sequentially: each doubling informs the next,
	// and a parallel overshoot would just burn probes.
	ok, res, err := Probe(p, base, mode, sizes(hi), recirc)
	if err != nil {
		return 0, res, err
	}
	for !ok {
		if hi > 1<<16 {
			return 0, res, fmt.Errorf("search: no sufficient size below %d blocks", hi)
		}
		hi *= 2
		ok, res, err = Probe(p, base, mode, sizes(hi), recirc)
		if err != nil {
			return 0, res, err
		}
	}
	lo := MinBlocks // lo-1 known insufficient by construction once loop ends
	best := res
	for lo < hi {
		// Candidate answers are lo..hi (hi known sufficient). Probe either
		// the whole remaining interval or bracketWidth evenly spaced
		// interior points.
		var pts []int
		if n := hi - lo; n <= bracketWidth {
			for v := lo; v < hi; v++ {
				pts = append(pts, v)
			}
		} else {
			for i := 1; i <= bracketWidth; i++ {
				v := lo + i*n/(bracketWidth+1)
				if len(pts) == 0 || v > pts[len(pts)-1] {
					pts = append(pts, v)
				}
			}
		}
		type outcome struct {
			ok  bool
			res harness.Result
		}
		outs := make([]outcome, len(pts))
		errs := make([]error, len(pts))
		_ = p.ForEach(len(pts), func(i int) error {
			outs[i].ok, outs[i].res, errs[i] = Probe(p, base, mode, sizes(pts[i]), recirc)
			return errs[i]
		})
		for _, err := range errs {
			if err != nil {
				return 0, best, err
			}
		}
		// Fold in ascending order: the smallest sufficient point becomes
		// the new hi, the largest insufficient point below it pushes lo.
		for i, o := range outs {
			if o.ok {
				hi = pts[i]
				best = o.res
				break
			}
		}
		for i := len(pts) - 1; i >= 0; i-- {
			if pts[i] < hi && !outs[i].ok {
				lo = pts[i] + 1
				break
			}
		}
	}
	return hi, best, nil
}

// TwoGenResult is one point of the EL minimum-space search.
type TwoGenResult struct {
	Gen0, Gen1 int
	Total      int
	Run        harness.Result
}

// MinTwoGen finds the minimum-total two-generation EL configuration by
// scanning generation 0 from MinBlocks upward — in waves of waveWidth
// candidates, each wave's generation-1 searches running concurrently — and
// bracket searching generation 1 for each candidate. The scan stops once
// the total has been rising for patience consecutive candidates past the
// best. Wave outcomes are folded in generation-0 order, so the chosen
// split does not depend on parallelism.
func MinTwoGen(p *runner.Pool, base harness.Config, recirc bool, g0Max int, g1Hi int) (TwoGenResult, error) {
	if g0Max <= 0 {
		// Generation 0 never usefully exceeds a few seconds of log
		// traffic; derive a bound from the workload's byte rate.
		bytesPerSec := base.Workload.Mix.LogBytesPerSecond(base.Workload.ArrivalRate, core.DefaultTxRecSize)
		g0Max = int(math.Ceil(4*bytesPerSec/core.DefaultBlockPayload)) + MinBlocks
	}
	if g1Hi <= 0 {
		g1Hi = 256
	}
	best := TwoGenResult{Total: math.MaxInt}
	const patience = 4
	rising := 0
	for g0 := MinBlocks; g0 <= g0Max; {
		n := g0Max - g0 + 1
		if n > waveWidth {
			n = waveWidth
		}
		type point struct {
			g1  int
			run harness.Result
			err error
		}
		pts := make([]point, n)
		// Every candidate in the wave warm-starts from the same g1Hi (the
		// previous wave's warm bound): a fixed input, unlike the sequential
		// per-candidate chain, so the searches are independent. The bound
		// only seeds the bracket — it never changes which minimum is found.
		_ = p.ForEach(n, func(i int) error {
			pt := &pts[i]
			pt.g1, pt.run, pt.err = MinLastGen(p, base, core.ModeEphemeral, []int{g0 + i}, recirc, g1Hi)
			return pt.err
		})
		stop := false
		for i := 0; i < n; i++ {
			if pts[i].err != nil {
				return best, pts[i].err
			}
			total := (g0 + i) + pts[i].g1
			if total < best.Total || (total == best.Total && best.Total != math.MaxInt) {
				// On ties prefer the larger generation 0: the records that
				// survive into the older generation are then genuinely long
				// lived, which is the configuration the paper carries into
				// its recirculation experiments (its split is 18+16, not
				// 16+18).
				best = TwoGenResult{Gen0: g0 + i, Gen1: pts[i].g1, Total: total, Run: pts[i].run}
				rising = 0
			} else if total > best.Total {
				rising++
				if rising >= patience {
					stop = true
					break
				}
			}
			// Warm-start the next wave: gen 1 never needs to grow when
			// gen 0 grows.
			g1Hi = pts[i].g1 + 2
		}
		if stop {
			break
		}
		g0 += n
	}
	if best.Total == math.MaxInt {
		return best, fmt.Errorf("search: no sufficient two-generation configuration found")
	}
	return best, nil
}

// MinChain finds a locally minimal configuration for an arbitrary number
// of generations: starting from a feasible point (growing the last
// generation until the workload fits), it repeatedly sweeps the chain,
// removing one block from each generation in turn and keeping the
// removals that stay sufficient, until a full sweep removes nothing. The
// balanced, unit-step descent avoids the degenerate basins that fully
// minimizing one coordinate at a time falls into (shrinking one
// generation to its floor first forces the others to absorb everything).
// Each probe in a sweep starts from the previous accept, so the descent
// is inherently sequential; with a pool, MinChain still benefits from the
// probe cache and from callers running independent searches beside it.
// The paper's two-generation experiments use the exhaustive MinTwoGen;
// MinChain generalizes to the N-generation chains of section 2.1.
func MinChain(p *runner.Pool, base harness.Config, recirc bool, start []int) ([]int, harness.Result, error) {
	sizes := append([]int(nil), start...)
	last := len(sizes) - 1
	ok, res, err := Probe(p, base, core.ModeEphemeral, sizes, recirc)
	if err != nil {
		return sizes, res, err
	}
	for !ok {
		if sizes[last] > 1<<16 {
			return sizes, res, fmt.Errorf("search: no feasible chain below %v", sizes)
		}
		sizes[last] *= 2
		ok, res, err = Probe(p, base, core.ModeEphemeral, sizes, recirc)
		if err != nil {
			return sizes, res, err
		}
	}
	best := res
	for {
		improved := false
		for idx := range sizes {
			if sizes[idx] <= MinBlocks {
				continue
			}
			sizes[idx]--
			ok, res, err := Probe(p, base, core.ModeEphemeral, sizes, recirc)
			if err != nil {
				return sizes, res, err
			}
			if ok {
				best = res
				improved = true
			} else {
				sizes[idx]++
			}
		}
		if !improved {
			return sizes, best, nil
		}
	}
}
