package experiments

// This file implements ablation and extension experiments beyond the
// paper's evaluation section, covering the design variations its
// concluding remarks propose: lifetime-hint placement, deeper generation
// chains, the EL-FW hybrid, and adaptive sizing. EXPERIMENTS.md labels
// these clearly as extensions rather than reproductions.

import (
	"fmt"
	"strings"

	"ellog/internal/adaptive"
	"ellog/internal/core"
	"ellog/internal/harness"
	"ellog/internal/metrics"
	"ellog/internal/multilog"
	"ellog/internal/runner"
	"ellog/internal/search"
	"ellog/internal/sim"
	"ellog/internal/workload"
)

// HintsResult is the lifetime-hint placement ablation (paper section 6:
// starting a transaction's records "in a generation in which the records
// are unlikely to reach the head before the transaction finishes" to
// reduce bandwidth).
type HintsResult struct {
	Sizes       []int
	BaseBW      float64 // writes/s without hints
	HintBW      float64 // writes/s with hints
	BaseForward uint64
	HintForward uint64
	// MinGen0NoHints and MinGen0Hints: the smallest working generation 0
	// with the last generation fixed — hints shed the long transactions'
	// traffic from generation 0 entirely.
	MinGen0NoHints int
	MinGen0Hints   int
}

// Hints runs the lifetime-hint ablation at the 5% mix. The generation
// split follows the paper's method: the no-recirculation minimum fixes
// generation 0, then recirculation shrinks the last generation (a direct
// recirculation-on minimum degenerates to a tiny generation 0 with one
// huge recirculating queue, which is not the configuration of interest).
func Hints(o Options) (HintsResult, error) {
	o = o.WithDefaults()
	p := o.pool()
	base := o.base(o.Mixes[0])

	elNR, err := search.MinTwoGen(p, base, false, 0, 0)
	if err != nil {
		return HintsResult{}, err
	}
	g1, _, err := search.MinLastGen(p, base, core.ModeEphemeral, []int{elNR.Gen0}, true, elNR.Gen1+2)
	if err != nil {
		return HintsResult{}, err
	}
	gen0 := elNR.Gen0
	sizes := []int{gen0, g1}
	r := HintsResult{Sizes: sizes}

	run := func(hints bool, g0 int) (harness.Result, error) {
		cfg := base
		cfg.LM = core.Params{
			Mode:        core.ModeEphemeral,
			GenSizes:    []int{g0, g1},
			Recirculate: true,
		}
		if hints {
			cfg.LM.HintBoundaries = []sim.Time{2 * sim.Second}
			cfg.LM.GroupCommitTimeout = 100 * sim.Millisecond
			cfg.Workload.Hints = true
		}
		return p.Run(cfg)
	}
	var baseRun, hintRun harness.Result
	errs := [2]error{}
	_ = p.ForEach(2, func(j int) error {
		if j == 0 {
			baseRun, errs[0] = run(false, gen0)
			return errs[0]
		}
		hintRun, errs[1] = run(true, gen0)
		return errs[1]
	})
	for _, err := range errs {
		if err != nil {
			return r, err
		}
	}
	r.BaseBW = baseRun.LM.TotalBandwidth
	r.HintBW = hintRun.LM.TotalBandwidth
	r.BaseForward = baseRun.LM.Forwarded
	r.HintForward = hintRun.LM.Forwarded
	r.MinGen0NoHints = gen0

	// How small can generation 0 get when long transactions bypass it?
	lo, hi := search.MinBlocks, gen0
	for lo < hi {
		mid := (lo + hi) / 2
		res, err := run(true, mid)
		if err != nil {
			return r, err
		}
		if res.Insufficient() {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	r.MinGen0Hints = hi
	return r, nil
}

// FormatHints renders the hint ablation.
func FormatHints(r HintsResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Lifetime-hint placement (section 6 extension) at EL %v with recirculation:\n", r.Sizes)
	fmt.Fprintf(&b, "  without hints: %6.2f writes/s, %6d records forwarded\n", r.BaseBW, r.BaseForward)
	fmt.Fprintf(&b, "  with hints:    %6.2f writes/s, %6d records forwarded\n", r.HintBW, r.HintForward)
	fmt.Fprintf(&b, "  minimum generation 0: %d blocks without hints, %d with\n", r.MinGen0NoHints, r.MinGen0Hints)
	return b.String()
}

// ChainResult compares log depth on a wide-lifetime workload: FW vs
// two-generation vs three-generation EL.
type ChainResult struct {
	Mix      workload.Mix
	FWBlocks int
	FWBW     float64
	Two      search.TwoGenResult
	Three    []int
	ThreeBW  float64
}

// Chain runs the generation-depth experiment on a three-lifetime mix
// (1 s / 10 s / 60 s): the wider the lifetime spread, the more a deeper
// chain of generations pays off — the workload the paper's introduction
// motivates ("transactions of widely varying lifetimes").
func Chain(o Options) (ChainResult, error) {
	o = o.WithDefaults()
	p := o.pool()
	mix := workload.Mix{
		{Name: "short-1s", Prob: 0.90, Lifetime: sim.Second, NumRecords: 2, RecordSize: 100},
		{Name: "medium-10s", Prob: 0.08, Lifetime: 10 * sim.Second, NumRecords: 4, RecordSize: 100},
		{Name: "long-60s", Prob: 0.02, Lifetime: 60 * sim.Second, NumRecords: 6, RecordSize: 100},
	}
	base := o.base(0)
	base.Workload.Mix = mix

	r := ChainResult{Mix: mix}
	// The FW reference and the two-generation baseline are independent.
	var (
		fwSize        int
		fwRun         harness.Result
		twoNR         search.TwoGenResult
		fwErr, twoErr error
	)
	_ = p.ForEach(2, func(j int) error {
		if j == 0 {
			fwSize, fwRun, fwErr = search.MinFirewall(p, base, 1024)
			return fwErr
		}
		// The paper's method: fix generation 0 at the no-recirculation
		// minimum, then let recirculation shrink the last generation.
		twoNR, twoErr = search.MinTwoGen(p, base, false, 0, 0)
		return twoErr
	})
	if fwErr != nil {
		return r, fwErr
	}
	if twoErr != nil {
		return r, twoErr
	}
	r.FWBlocks = fwSize
	r.FWBW = fwRun.LM.TotalBandwidth

	g1, twoRun, err := search.MinLastGen(p, base, core.ModeEphemeral, []int{twoNR.Gen0}, true, twoNR.Gen1+2)
	if err != nil {
		return r, err
	}
	r.Two = search.TwoGenResult{Gen0: twoNR.Gen0, Gen1: g1, Total: twoNR.Gen0 + g1, Run: twoRun}

	three, threeRun, err := minChainGuided(p, base, true,
		[]int{twoNR.Gen0, twoNR.Gen1, twoNR.Gen1})
	if err != nil {
		return r, err
	}
	r.Three = three
	r.ThreeBW = threeRun.LM.TotalBandwidth
	return r, nil
}

// minChainGuided sizes an N-generation chain by letting the adaptive
// controller converge on a live run (it allocates space by garbage-age
// economics, avoiding the degenerate basins plain local search falls
// into), then polishing the candidate with search.MinChain's unit-step
// descent. The start must be feasible or near-feasible.
func minChainGuided(p *runner.Pool, base harness.Config, recirc bool, start []int) ([]int, harness.Result, error) {
	var cand []int
	// The adaptive pilot is a live (uncached) run; Do keeps it under the
	// pool's concurrency bound alongside regular probes.
	err := p.Do(func() error {
		cfg := base
		cfg.LM = core.Params{Mode: core.ModeEphemeral, GenSizes: start, Recirculate: recirc}
		live, err := harness.Build(cfg)
		if err != nil {
			return err
		}
		ctl := adaptive.Attach(live.Setup.Eng, live.Setup.LM, adaptive.Config{})
		live.Setup.Eng.Run(cfg.Workload.Runtime)
		cand = ctl.Sizes()
		return nil
	})
	if err != nil {
		return nil, harness.Result{}, err
	}
	// Two blocks of headroom per generation: the controller's converged
	// sizes reflect a run that includes its own convergence turbulence.
	for i := range cand {
		cand[i] += 2
	}
	return search.MinChain(p, base, recirc, cand)
}

// FormatChain renders the generation-depth comparison.
func FormatChain(r ChainResult) string {
	sum := func(s []int) int {
		t := 0
		for _, v := range s {
			t += v
		}
		return t
	}
	var b strings.Builder
	b.WriteString("Generation depth on a 1s/10s/60s mix (90/8/2%):\n")
	fmt.Fprintf(&b, "  FW:       %4d blocks, %6.2f writes/s\n", r.FWBlocks, r.FWBW)
	fmt.Fprintf(&b, "  EL x2:    %4d blocks (%d+%d), %6.2f writes/s\n",
		r.Two.Total, r.Two.Gen0, r.Two.Gen1, r.Two.Run.LM.TotalBandwidth)
	fmt.Fprintf(&b, "  EL x3:    %4d blocks %v, %6.2f writes/s\n", sum(r.Three), r.Three, r.ThreeBW)
	return b.String()
}

// HybridCompareResult positions FW, EL and the EL-FW hybrid on a workload
// with many updates per transaction (section 6: the hybrid's memory win is
// "drastic" when each transaction updates many objects). Each row is its
// technique at its minimum space with no kills.
type HybridCompareResult struct {
	Sizes [3][]int          // FW, EL, hybrid generation sizes
	Runs  [3]harness.Result // the runs at those sizes
}

// HybridCompare runs the three techniques on an update-heavy mix.
func HybridCompare(o Options) (HybridCompareResult, error) {
	o = o.WithDefaults()
	p := o.pool()
	mix := workload.Mix{
		{Name: "short", Prob: 0.8, Lifetime: sim.Second, NumRecords: 2, RecordSize: 100},
		{Name: "update-heavy", Prob: 0.2, Lifetime: 10 * sim.Second, NumRecords: 10, RecordSize: 100},
	}
	base := o.base(0)
	base.Workload.Mix = mix

	var r HybridCompareResult

	var (
		fwSize       int
		fwRun        harness.Result
		el           search.TwoGenResult
		fwErr, elErr error
	)
	_ = p.ForEach(2, func(j int) error {
		if j == 0 {
			fwSize, fwRun, fwErr = search.MinFirewall(p, base, 512)
			return fwErr
		}
		el, elErr = search.MinTwoGen(p, base, true, 0, 0)
		return elErr
	})
	if fwErr != nil {
		return r, fwErr
	}
	if elErr != nil {
		return r, elErr
	}

	// The hybrid keeps EL's generation 0 and its last generation is
	// searched the way EL's is. Its old generation sees little fresh
	// traffic, so a COMMIT there waits at most 100 ms for its buffer.
	hybBase := base
	hybBase.LM.GroupCommitTimeout = 100 * sim.Millisecond
	g1, hybRun, err := search.MinLastGen(p, hybBase, core.ModeHybrid, []int{el.Gen0}, true, el.Gen1+2)
	if err != nil {
		return r, err
	}
	r.Sizes = [3][]int{{fwSize}, {el.Gen0, el.Gen1}, {el.Gen0, g1}}
	r.Runs = [3]harness.Result{fwRun, el.Run, hybRun}
	return r, nil
}

// FormatHybridCompare renders the three-technique comparison.
func FormatHybridCompare(r HybridCompareResult) string {
	var b strings.Builder
	b.WriteString("FW vs EL vs EL-FW hybrid on an update-heavy mix (10 updates per long tx):\n")
	fmt.Fprintf(&b, "  %-8s %-10s %8s %10s %12s %11s\n", "", "split", "blocks", "writes/s", "mem peak B", "moved recs")
	for i, n := range []string{"FW", "EL", "hybrid"} {
		st := r.Runs[i].LM
		fmt.Fprintf(&b, "  %-8s %-10s %8d %10.2f %12.0f %11d\n", n, fmt.Sprint(r.Sizes[i]),
			st.TotalBlocks, st.TotalBandwidth, st.MemPeakBytes, st.Forwarded+st.Recirculated)
	}
	b.WriteString("  (each row at its minimum space with no kills; the hybrid's moved records include its regenerated ones)\n")
	return b.String()
}

// AdaptiveResult records the adaptive-sizing run.
type AdaptiveResult struct {
	StartSizes []int
	FinalSizes []int
	OfflineMin int
	Kills      uint64 // total (all during convergence)
	LateKills  uint64 // kills in the final quarter of the run — should be 0
	Grown      int
	Shrunk     int
}

// Adaptive starts EL far too small, lets the controller converge, and
// compares the result with the offline search minimum.
func Adaptive(o Options) (AdaptiveResult, error) {
	o = o.WithDefaults()
	p := o.pool()
	base := o.base(o.Mixes[0])

	r := AdaptiveResult{StartSizes: []int{6, 6}}
	// The offline reference search and the live adaptive run are
	// independent; run them side by side.
	errs := [2]error{}
	_ = p.ForEach(2, func(j int) error {
		if j == 0 {
			off, err := search.MinTwoGen(p, base, false, 0, 0)
			if err == nil {
				r.OfflineMin = off.Total
			}
			errs[0] = err
			return err
		}
		errs[1] = p.Do(func() error {
			cfg := base
			cfg.LM = core.Params{Mode: core.ModeEphemeral, GenSizes: r.StartSizes, Recirculate: false}
			live, err := harness.Build(cfg)
			if err != nil {
				return err
			}
			ctl := adaptive.Attach(live.Setup.Eng, live.Setup.LM, adaptive.Config{})
			threeQuarters := cfg.Workload.Runtime / 4 * 3
			live.Setup.Eng.Run(threeQuarters)
			killsAt75 := live.Gen.Killed()
			live.Setup.Eng.Run(cfg.Workload.Runtime)
			r.Kills = live.Gen.Killed()
			r.LateKills = r.Kills - killsAt75
			r.FinalSizes = ctl.Sizes()
			r.Grown = ctl.Grown()
			r.Shrunk = ctl.Shrunk()
			return nil
		})
		return errs[1]
	})
	for _, err := range errs {
		if err != nil {
			return r, err
		}
	}
	return r, nil
}

// FormatAdaptive renders the adaptive-sizing result.
func FormatAdaptive(r AdaptiveResult) string {
	total := 0
	for _, v := range r.FinalSizes {
		total += v
	}
	var b strings.Builder
	b.WriteString("Adaptive generation sizing (section 6 wish):\n")
	fmt.Fprintf(&b, "  started at %v, converged to %v (total %d; offline minimum %d)\n",
		r.StartSizes, r.FinalSizes, total, r.OfflineMin)
	fmt.Fprintf(&b, "  %d kills during convergence, %d in the final quarter; +%d/-%d blocks\n",
		r.Kills, r.LateKills, r.Grown, r.Shrunk)
	return b.String()
}

// ArrivalPoint is one arrival process's minimum-space result.
type ArrivalPoint struct {
	Process  workload.Arrival
	FWBlocks int
	ELGen0   int
	ELGen1   int
	ELBlocks int
}

// ArrivalSensitivity continues the paper's future-work sentence ("more
// complicated probabilistic models (such as Markov arrivals) may be
// investigated"): the same 5% mix under deterministic, Poisson and bursty
// Markov-modulated arrivals. Burstier arrivals need bigger logs — for both
// techniques — because minimum space is set by peak, not mean, backlog.
func ArrivalSensitivity(o Options) ([]ArrivalPoint, error) {
	o = o.WithDefaults()
	p := o.pool()
	procs := []workload.Arrival{
		workload.ArrivalDeterministic, workload.ArrivalPoisson, workload.ArrivalBursty,
	}
	out := make([]ArrivalPoint, len(procs))
	err := p.ForEach(len(procs), func(i int) error {
		proc := procs[i]
		base := o.base(o.Mixes[0])
		base.Workload.Arrival = proc
		var (
			fwSize       int
			el           search.TwoGenResult
			fwErr, elErr error
		)
		_ = p.ForEach(2, func(j int) error {
			if j == 0 {
				fwSize, _, fwErr = search.MinFirewall(p, base, 256)
				return fwErr
			}
			el, elErr = search.MinTwoGen(p, base, false, 0, 0)
			return elErr
		})
		if fwErr != nil {
			return fmt.Errorf("arrivals %v: %w", proc, fwErr)
		}
		if elErr != nil {
			return fmt.Errorf("arrivals %v: %w", proc, elErr)
		}
		out[i] = ArrivalPoint{
			Process:  proc,
			FWBlocks: fwSize,
			ELGen0:   el.Gen0,
			ELGen1:   el.Gen1,
			ELBlocks: el.Total,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatArrivals renders the arrival-sensitivity table.
func FormatArrivals(points []ArrivalPoint) string {
	var b strings.Builder
	b.WriteString("Arrival-process sensitivity (5% mix, minimum blocks with no kills):\n")
	fmt.Fprintf(&b, "  %-14s %8s %14s %10s\n", "process", "FW", "EL split", "EL total")
	for _, p := range points {
		fmt.Fprintf(&b, "  %-14v %8d %11d+%-3d %10d\n", p.Process, p.FWBlocks, p.ELGen0, p.ELGen1, p.ELBlocks)
	}
	return b.String()
}

// StealResult is the UNDO/REDO ablation: the same workload and sizes with
// and without the steal policy.
type StealResult struct {
	Sizes        []int
	NoStealBW    float64
	StealBW      float64
	NoStealFlush uint64 // total stable-database writes
	StealFlush   uint64
	NoStealMem   float64 // peak LOT+LTT bytes
	StealMem     float64
	MinTotalNS   int // minimum two-generation total without steal
	MinTotalS    int // and with
}

// Steal compares EL with and without the UNDO/REDO extension at the 5%
// mix: stealing flushes updates earlier (smaller unflushed backlog, less
// LOT memory) but pays a commit-time cleaning write per stolen object and
// keeps stolen records non-garbage until cleaned.
func Steal(o Options) (StealResult, error) {
	o = o.WithDefaults()
	p := o.pool()
	base := o.base(o.Mixes[0])
	stealBase := base
	stealBase.LM.Steal = true

	// The two minimum searches (without and with steal) are independent.
	var (
		elNR, elS      search.TwoGenResult
		nrErr, stemErr error
	)
	_ = p.ForEach(2, func(j int) error {
		if j == 0 {
			elNR, nrErr = search.MinTwoGen(p, base, false, 0, 0)
			return nrErr
		}
		elS, stemErr = search.MinTwoGen(p, stealBase, false, 0, 0)
		return stemErr
	})
	if nrErr != nil {
		return StealResult{}, nrErr
	}
	r := StealResult{Sizes: []int{elNR.Gen0, elNR.Gen1}, MinTotalNS: elNR.Total}
	if stemErr != nil {
		return r, stemErr
	}
	r.MinTotalS = elS.Total

	run := func(steal bool) (harness.Result, error) {
		cfg := base
		cfg.LM = core.Params{
			Mode:     core.ModeEphemeral,
			GenSizes: []int{elNR.Gen0, elNR.Gen1},
			Steal:    steal,
		}
		return p.Run(cfg)
	}
	var ns, st harness.Result
	errs := [2]error{}
	_ = p.ForEach(2, func(j int) error {
		if j == 0 {
			ns, errs[0] = run(false)
			return errs[0]
		}
		st, errs[1] = run(true)
		return errs[1]
	})
	for _, err := range errs {
		if err != nil {
			return r, err
		}
	}
	r.NoStealBW = ns.LM.TotalBandwidth
	r.StealBW = st.LM.TotalBandwidth
	r.NoStealFlush = ns.LM.Flush.Flushes + ns.LM.Flush.Forced
	r.StealFlush = st.LM.Flush.Flushes + st.LM.Flush.Forced
	r.NoStealMem = ns.LM.MemPeakBytes
	r.StealMem = st.LM.MemPeakBytes
	return r, nil
}

// FormatSteal renders the steal ablation.
func FormatSteal(r StealResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "UNDO/REDO (steal) ablation at EL %v:\n", r.Sizes)
	fmt.Fprintf(&b, "  %-10s %12s %16s %14s\n", "", "log writes/s", "DB writes total", "mem peak B")
	fmt.Fprintf(&b, "  %-10s %12.2f %16d %14.0f\n", "no-steal", r.NoStealBW, r.NoStealFlush, r.NoStealMem)
	fmt.Fprintf(&b, "  %-10s %12.2f %16d %14.0f\n", "steal", r.StealBW, r.StealFlush, r.StealMem)
	fmt.Fprintf(&b, "  minimum two-generation total: %d blocks without steal, %d with\n", r.MinTotalNS, r.MinTotalS)
	return b.String()
}

// ScalePoint is one partition-count measurement of the shared-nothing
// multilog experiment.
type ScalePoint struct {
	Partitions   int
	TPS          float64 // aggregate sustained transactions/s
	Bandwidth    float64 // aggregate log writes/s
	Blocks       int     // total log disk across partitions
	RecoveryPar  sim.Time
	RecoverySer  sim.Time
	Insufficient bool
}

// Scale runs the paper's motivating scenario — a highly concurrent system
// — as P shared-nothing EL partitions, P = 1,2,4,8, each at the paper's
// per-partition workload. No checkpoints means no cross-partition
// synchronization: throughput scales linearly in the number of logs, and
// crash recovery time stays flat (each partition replays only its own
// small log, in parallel).
func Scale(o Options) ([]ScalePoint, error) {
	o = o.WithDefaults()
	p := o.pool()
	partCounts := []int{1, 2, 4, 8}
	out := make([]ScalePoint, len(partCounts))
	err := p.ForEach(len(partCounts), func(idx int) error {
		parts := partCounts[idx]
		// A whole multi-partition system is one live simulation; Do keeps
		// the four systems within the pool's concurrency bound.
		return p.Do(func() error {
			live, st, err := multilog.RunPDES(shardFrame(o, parts, 0, 25*sim.Millisecond))
			if err != nil {
				return err
			}
			_, report, err := multilog.RecoverAll(live.Setups(), 0)
			if err != nil {
				return err
			}
			out[idx] = ScalePoint{
				Partitions:   parts,
				TPS:          float64(st.Committed) / o.Runtime.Seconds(),
				Bandwidth:    st.Bandwidth,
				Blocks:       st.TotalBlocks,
				RecoveryPar:  report.ParallelTime,
				RecoverySer:  report.SerialTime,
				Insufficient: live.Insufficient(),
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CrossShardPoint is one (shard count, cross-shard fraction) cell of the
// distributed-transaction sweep.
type CrossShardPoint struct {
	Shards int
	Frac   float64 // fraction of transactions spanning two shards

	TPS       float64 // aggregate committed transactions/s
	Bandwidth float64 // aggregate log writes/s

	// Commit latency split by path: local transactions pay one group
	// commit, cross-shard ones pay prepare durability on the participant
	// plus the coordinator's decision record.
	LocalMean float64
	LocalP99  float64
	CrossMean float64
	CrossP99  float64

	// Crash recovery of the whole machine at end of run: parallel replay
	// time and the 2PC resolution work the crash image demanded.
	RecoveryPar    sim.Time
	InDoubt        int
	ResolvedCommit int
	ResolvedAbort  int

	Insufficient bool
}

// shardFrame is the sharded run both multilog experiments sweep: the
// paper's 5 % mix at 100 TPS per shard on a recirculating 20+16 block log,
// with an eighth of the object space per shard so the total stays
// comparable. It runs on the sequential reference schedule, one run per
// pool slot.
func shardFrame(o Options, shards int, crossFrac float64, transfer sim.Time) multilog.PDESConfig {
	perShard := o.NumObjects / 8
	if perShard%10 != 0 {
		perShard -= perShard % 10
	}
	return multilog.PDESConfig{
		Seed:   o.Seed,
		Shards: shards,
		LM: core.Params{
			Mode: core.ModeEphemeral, GenSizes: []int{20, 16}, Recirculate: true,
		},
		Flush: core.FlushConfig{Drives: 10, Transfer: transfer, NumObjects: perShard},
		Workload: workload.Config{
			Mix:         workload.PaperMix(0.05),
			ArrivalRate: 100,
			Runtime:     o.Runtime,
		},
		CrossFrac: crossFrac,
	}
}

// CrossShard sweeps shard count x cross-shard fraction through the
// message-based 2PC in the log: each cell runs the paper workload at 100
// TPS per shard with the given share of each shard's arrivals starting as
// two-branch transactions across shards, then crashes the whole machine
// at the end of the run and recovers, reporting how the distributed-commit
// path prices against the local one and what the in-doubt resolution pass
// had to settle.
func CrossShard(o Options) ([]CrossShardPoint, error) {
	o = o.WithDefaults()
	p := o.pool()
	type cell struct {
		shards int
		frac   float64
	}
	var cells []cell
	for _, s := range []int{1, 2, 4} {
		for _, f := range []float64{0, 0.05, 0.20} {
			if s == 1 && f > 0 {
				continue // a single shard has no second shard to cross to
			}
			cells = append(cells, cell{s, f})
		}
	}
	out := make([]CrossShardPoint, len(cells))
	err := p.ForEach(len(cells), func(idx int) error {
		c := cells[idx]
		return p.Do(func() error {
			live, st, err := multilog.RunPDES(shardFrame(o, c.shards, c.frac, o.FlushTransfer))
			if err != nil {
				return err
			}
			// PDESStats merges both paths' latencies; the local column is
			// the generators' alone.
			var local metrics.Histogram
			for _, s := range live.Shards {
				s.Gen.MergeLatencies(&local)
			}
			_, report, err := multilog.RecoverAll(live.Setups(), 0)
			if err != nil {
				return err
			}
			out[idx] = CrossShardPoint{
				Shards:         c.shards,
				Frac:           c.frac,
				TPS:            float64(st.Committed+st.CrossCommitted) / o.Runtime.Seconds(),
				Bandwidth:      st.Bandwidth,
				LocalMean:      local.Mean(),
				LocalP99:       local.Quantile(0.99),
				CrossMean:      st.CrossE2EMean,
				CrossP99:       st.CrossE2EP99,
				RecoveryPar:    report.ParallelTime,
				InDoubt:        report.InDoubt,
				ResolvedCommit: report.ResolvedCommit,
				ResolvedAbort:  report.ResolvedAbort,
				Insufficient:   live.Insufficient(),
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatCrossShard renders the distributed-transaction sweep.
func FormatCrossShard(points []CrossShardPoint) string {
	var b strings.Builder
	b.WriteString("Cross-shard transactions (2PC in the log, 100 TPS per shard):\n")
	fmt.Fprintf(&b, "  %-7s %-6s %9s %12s %11s %11s %14s %8s\n",
		"shards", "cross", "commit/s", "log writes/s", "local e2e", "cross e2e", "recovery(par)", "indoubt")
	for _, p := range points {
		cross := "-"
		if p.Frac > 0 {
			cross = fmt.Sprintf("%.2fs/%.2fs", p.CrossMean, p.CrossP99)
		}
		note := ""
		if p.Insufficient {
			note = "  INSUFFICIENT"
		}
		fmt.Fprintf(&b, "  %-7d %-6.2f %9.1f %12.2f %5.2fs/%.2fs %11s %14v %8d%s\n",
			p.Shards, p.Frac, p.TPS, p.Bandwidth, p.LocalMean, p.LocalP99, cross,
			p.RecoveryPar, p.InDoubt, note)
	}
	b.WriteString("  (e2e columns are mean/p99; indoubt counts prepared branches the crash left unresolved)\n")
	return b.String()
}

// FormatScale renders the multilog scaling table.
func FormatScale(points []ScalePoint) string {
	var b strings.Builder
	b.WriteString("Shared-nothing scaling (100 TPS per partition, no cross-log synchronization):\n")
	fmt.Fprintf(&b, "  %-11s %10s %12s %10s %14s %14s\n",
		"partitions", "commit/s", "log writes/s", "blocks", "recovery(par)", "recovery(ser)")
	for _, p := range points {
		note := ""
		if p.Insufficient {
			note = "  INSUFFICIENT"
		}
		fmt.Fprintf(&b, "  %-11d %10.1f %12.2f %10d %14v %14v%s\n",
			p.Partitions, p.TPS, p.Bandwidth, p.Blocks, p.RecoveryPar, p.RecoverySer, note)
	}
	return b.String()
}
