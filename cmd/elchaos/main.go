// Command elchaos exercises the fault-injection and crash-campaign
// subsystem (internal/fault) against the paper's logging model.
//
// Two modes:
//
//	elchaos                         chaos: run the small default workload
//	                                under seeded I/O faults and verify that
//	                                every acknowledged commit survives
//	                                recovery once the run drains
//	elchaos -campaign               campaign: sweep deterministic crash
//	                                points — after every block-write
//	                                completion and mid-write at torn
//	                                boundaries — recovering and verifying
//	                                at each point
//	elchaos -campaign -shards 3     cross-shard campaign: run the workload
//	                                sharded with 2PC-in-the-log and sweep
//	                                whole-machine and single-shard crashes
//	                                at every instant a block write became
//	                                durable, verifying atomicity at each
//	                                point
//
// A chaos run is assembled by multilog.BuildPDES as max(1, -shards)
// shards, each with its own fault plan; shard 0's plan draws from exactly
// -fault-seed, so a 1-shard run is the classic single-log chaos run. The
// drained machine is crashed whole and recovered, in-doubt 2PC branches
// resolved against the coordinators' logs.
//
// Examples:
//
//	elchaos -write-fail 0.25 -corrupt 0 -runtime 10
//	elchaos -shards 3 -cross-frac 0.3 -write-fail 0.25 -corrupt 0
//	elchaos -campaign -max-points 60 -workers 4
//	elchaos -campaign -config cfg.json -torn-fracs 0.25,0.75
//	elchaos -campaign -shards 3 -cross-frac 0.3 -max-points 200
//
// Both modes are deterministic for a fixed (seed, fault-seed) pair; a
// parallel campaign (-workers > 1) is byte-identical to a sequential one.
// Exit status 1 means the recovery property was violated.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ellog/internal/config"
	"ellog/internal/fault"
	"ellog/internal/harness"
	"ellog/internal/multilog"
	"ellog/internal/obs"
	"ellog/internal/recovery"
	"ellog/internal/runner"
	"ellog/internal/sim"
	"ellog/internal/trace"
)

func main() {
	var (
		configPath = flag.String("config", "", "configuration JSON (default: a small built-in chaos workload)")
		seed       = flag.Uint64("seed", 0, "override: workload random seed")
		runtimeS   = flag.Float64("runtime", 0, "override: simulated seconds of transaction initiation")

		campaign  = flag.Bool("campaign", false, "sweep crash points instead of running chaos")
		maxPoints = flag.Int("max-points", 0, "campaign: bound the sweep to ~N points spanning the run (0 = all)")
		tornFracs = flag.String("torn-fracs", "", "campaign: comma-separated torn prefix fractions (default 0.3,0.7)")
		workers   = flag.Int("workers", 0, "campaign: parallel crash-point runs (0 = GOMAXPROCS)")
		shards    = flag.Int("shards", 0, "run as this many shards, each with its own fault plan; with -campaign (>= 2), sweep cross-shard atomicity")
		crossFrac = flag.Float64("cross-frac", 0.3, "share of each shard's arrivals spanning two shards (with -shards)")

		faultSeed = flag.Uint64("fault-seed", 1, "chaos: fault plan seed")
		writeFail = flag.Float64("write-fail", 0.1, "chaos: transient write-error probability per block write")
		corrupt   = flag.Float64("corrupt", 0.05, "chaos: silent single-bit corruption probability per block write")
		slow      = flag.Float64("slow", 0.1, "chaos: latency-inflation probability per block write")
		stall     = flag.Float64("stall", 0.05, "chaos: stall probability per flush-drive service")
		verbose   = flag.Bool("v", false, "also print workload statistics")
	)
	flag.Parse()

	cfg := smallConfig()
	if *configPath != "" {
		var err error
		cfg, err = config.Load(*configPath)
		if err != nil {
			fatal(err)
		}
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *runtimeS > 0 {
		cfg.RuntimeS = *runtimeS
	}
	if *shards > 0 {
		cfg.Shards = *shards
	}
	if *shards > 1 {
		cfg.CrossFrac = *crossFrac // cross-shard traffic needs a second shard
	}
	// Each shard's object range must split evenly over its flush drives;
	// round the total down so the division works out.
	if q := uint64(max(1, cfg.Shards) * cfg.FlushDrives); q > 0 && cfg.NumObjects%q != 0 {
		cfg.NumObjects -= cfg.NumObjects % q
	}

	if *campaign {
		if cfg.Faults != nil && cfg.Faults.ToFault().Active() {
			fatal(fmt.Errorf("campaign bases must be fault-free: drop the faults section (crashes are the campaign's fault model)"))
		}
		if cfg.Shards > 1 {
			runCrossCampaign(cfg, *maxPoints, *workers)
			return
		}
		hcfg, err := cfg.ToHarness()
		if err != nil {
			fatal(err)
		}
		runCampaign(hcfg, *tornFracs, *maxPoints, *workers)
		return
	}
	runChaos(cfg, chaosConfig(cfg, *faultSeed, *writeFail, *corrupt, *slow, *stall), *verbose)
}

// smallConfig is a deliberately small run — a couple of simulated seconds,
// a thousand objects, two flush drives — so chaos runs finish instantly
// and exhaustive campaign sweeps stay within CI budgets.
func smallConfig() config.SimConfig {
	cfg := config.Default()
	cfg.Generations = []int{10, 10}
	cfg.Recirculate = false
	cfg.Mix = []config.TxTypeJSON{
		{Name: "short", Prob: 1, LifetimeMS: 300, NumRecords: 2, RecordSize: 100},
	}
	cfg.ArrivalRate = 40
	cfg.RuntimeS = 2
	cfg.NumObjects = 1000
	cfg.FlushDrives = 2
	cfg.FlushTransferMS = 5
	return cfg
}

// chaosConfig merges the configuration file's faults section (if any) with
// explicitly set command-line flags, flags winning.
func chaosConfig(cfg config.SimConfig, faultSeed uint64, writeFail, corrupt, slow, stall float64) fault.Config {
	fc := fault.Config{
		Seed:          faultSeed,
		WriteFailProb: writeFail,
		CorruptProb:   corrupt,
		SlowProb:      slow,
		StallProb:     stall,
	}
	if cfg.Faults == nil {
		return fc
	}
	base := cfg.Faults.ToFault()
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "fault-seed":
			base.Seed = faultSeed
		case "write-fail":
			base.WriteFailProb = writeFail
		case "corrupt":
			base.CorruptProb = corrupt
		case "slow":
			base.SlowProb = slow
		case "stall":
			base.StallProb = stall
		}
	})
	return base
}

// runChaos runs the workload under fire, one fault plan per shard,
// drains it, and verifies that the whole machine's crash image still
// recovers every acknowledged commit.
func runChaos(cfg config.SimConfig, fc fault.Config, verbose bool) {
	pcfg, err := cfg.ToPDES()
	if err != nil {
		fatal(err)
	}
	live, err := multilog.BuildPDES(pcfg)
	if err != nil {
		fatal(err)
	}
	plans, err := live.AttachFaults(fc)
	if err != nil {
		fatal(err)
	}
	// Chaos runs are deliberately small, so recording every shard's
	// complete event stream is cheap; a failing run can then be dumped
	// byte-for-byte and triaged offline with eltrace, instead of rerunning
	// under a debugger.
	n := len(live.Shards)
	rings := make([]*trace.Ring, n)
	captures := make([]*obs.Capture, n)
	for i, s := range live.Shards {
		rings[i], captures[i] = trace.NewRing(2048), &obs.Capture{}
		sink := obs.Multi(rings[i], captures[i])
		s.Setup.LM.SetTracer(sink)
		plans[i].SetTracer(sink)
	}
	fail := func(format string, args ...any) {
		fmt.Printf(format, args...)
		for i, c := range captures {
			fmt.Printf("--- shard %d: last 40 trace events ---\n%s", i, rings[i].Dump(40))
			path := obs.ShardPath(fmt.Sprintf("elchaos-chaos-seed%d.jsonl", pcfg.Seed), i, n)
			if err := obs.WriteJSONLFile(path, c.Events); err != nil {
				fmt.Fprintln(os.Stderr, "elchaos: writing trace dump:", err)
			} else {
				fmt.Printf("full trace (%d events) written to %s (inspect with: go run ./cmd/eltrace -in %s)\n",
					len(c.Events), path, path)
			}
		}
		os.Exit(1)
	}
	fmt.Printf("chaos: %s, generations %v, %s, %d shard(s) (cross frac %.2f), seed %d; fault seed %d (write-fail %.3f, corrupt %.3f, slow %.3f, stall %.3f)\n",
		strings.ToUpper(cfg.Mode), cfg.Generations, pcfg.Workload.Runtime, n, pcfg.CrossFrac, pcfg.Seed,
		fc.Seed, fc.WriteFailProb, fc.CorruptProb, fc.SlowProb, fc.StallProb)

	// Run past the workload runtime so retry windows close, abandoned
	// blocks' committed updates reach the flush disks and 2PC rounds end.
	live.PE.Run(pcfg.Workload.Runtime + 30*sim.Second)

	var ps fault.Stats
	for _, p := range plans {
		ps.Add(p.Stats())
	}
	st := live.Stats()
	var errs, retries, abandoned uint64
	for _, s := range st.PerShard {
		errs, retries, abandoned = errs+s.WriteErrors, retries+s.WriteRetries, abandoned+s.AbandonedWrites
	}
	fmt.Printf("faults injected: %d write failures, %d corruptions, %d slowdowns, %d stalls\n",
		ps.WriteFails, ps.Corruptions, ps.Slowdowns, ps.Stalls)
	fmt.Printf("manager: %d write errors seen, %d retries, %d writes abandoned, %d transactions killed\n",
		errs, retries, abandoned, st.Killed)
	if verbose {
		fmt.Print(st)
	}
	for i, s := range live.Shards {
		if err := s.Setup.LM.CheckInvariants(); err != nil {
			fail("verdict: FAIL — shard %d: manager invariants violated after chaos: %v\n", i, err)
		}
	}
	recovered, report, err := multilog.RecoverAll(live.Setups(), 0)
	if err != nil {
		fail("verdict: FAIL — recovery died on the chaos image: %v\n", err)
	}
	var blocks, torn, salvaged, winners int
	for _, r := range report.Per {
		blocks, torn, salvaged, winners = blocks+r.BlocksRead, torn+r.TornBlocks, salvaged+r.SalvagedRecs, winners+r.Winners
	}
	fmt.Printf("recovery: %d blocks read, %d torn/corrupt blocks detected, %d records salvaged, %d winners\n",
		blocks, torn, salvaged, winners)
	if report.InDoubt > 0 {
		fmt.Printf("2PC: %d in-doubt branches (%d resolved commit, %d presumed abort)\n",
			report.InDoubt, report.ResolvedCommit, report.ResolvedAbort)
	}
	if fc.CorruptProb > 0 {
		// Silent corruption may legitimately discard durable suffixes, so the
		// strict oracle does not apply; surviving recovery is the contract.
		fmt.Println("verdict: PASS — recovery survived the corrupt image (oracle check skipped: corruption armed)")
		return
	}
	if err := recovery.VerifyOracle(recovered, live.Oracle()); err != nil {
		fail("verdict: FAIL — acknowledged commit lost under chaos: %v\n", err)
	}
	fmt.Printf("verdict: PASS — all %d acknowledged commits recovered exactly\n", st.Committed+st.CrossCommitted)
}

// runCampaign sweeps crash points over the fault-free base configuration.
func runCampaign(hcfg harness.Config, tornFracs string, maxPoints, workers int) {
	ccfg := fault.CampaignConfig{Base: hcfg, MaxPoints: maxPoints}
	if tornFracs != "" {
		for _, part := range strings.Split(tornFracs, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				fatal(fmt.Errorf("bad -torn-fracs %q: %w", tornFracs, err))
			}
			ccfg.TornFracs = append(ccfg.TornFracs, f)
		}
	}
	pool := runner.New(workers)
	fmt.Printf("campaign: seed %d, generations %v, %v runtime, %d workers\n",
		hcfg.Seed, hcfg.LM.GenSizes, hcfg.Workload.Runtime, pool.Workers())
	start := time.Now() //ellint:allow wallclock operator feedback on campaign cost
	res, err := fault.RunCampaign(ccfg, pool)
	if err != nil {
		fatal(err)
	}
	fmt.Print(res)
	fmt.Printf("(%v wall clock)\n", time.Since(start).Round(time.Millisecond)) //ellint:allow wallclock operator feedback, not a simulation result
	if !res.Passed() {
		// A sweep keeps no traces — points are too numerous — so rerun the
		// first failing point alone with a capture sink and dump its full
		// event stream for eltrace.
		f := res.Failures[0]
		capture := &obs.Capture{}
		path := fmt.Sprintf("elchaos-point%d.jsonl", f.Point.Index)
		if _, _, rerr := fault.TracePoint(ccfg, f.Point, capture); rerr != nil {
			fmt.Fprintln(os.Stderr, "elchaos: replaying failing point:", rerr)
		} else if werr := obs.WriteJSONLFile(path, capture.Events); werr != nil {
			fmt.Fprintln(os.Stderr, "elchaos: writing trace dump:", werr)
		} else {
			fmt.Printf("first failure (%v) replayed: %d events written to %s (inspect with: go run ./cmd/eltrace -in %s)\n",
				f.Point, len(capture.Events), path, path)
		}
		os.Exit(1)
	}
}

// runCrossCampaign sweeps whole-machine and single-shard crash points over
// a sharded run with distributed transactions, verifying cross-shard
// atomicity at every point.
func runCrossCampaign(cfg config.SimConfig, maxPoints, workers int) {
	if cfg.GroupCommitTimeoutMS == 0 {
		// Pure group commit leaves a lightly loaded shard's blocks unsealed
		// for most of the run — almost no durable instants to crash at.
		// Bound the seal delay so the sweep is dense.
		cfg.GroupCommitTimeoutMS = 20
	}
	pcfg, err := cfg.ToPDES()
	if err != nil {
		fatal(err)
	}
	pool := runner.New(workers)
	fmt.Printf("cross-shard campaign: seed %d, %d shards (cross frac %.2f), generations %v, %v runtime, %d workers\n",
		pcfg.Seed, pcfg.Shards, pcfg.CrossFrac, pcfg.LM.GenSizes, pcfg.Workload.Runtime, pool.Workers())
	start := time.Now() //ellint:allow wallclock operator feedback on campaign cost
	res, err := multilog.RunCrossCampaign(multilog.CrossCampaignConfig{Base: pcfg, MaxPoints: maxPoints}, pool)
	if err != nil {
		fatal(err)
	}
	fmt.Print(res)
	fmt.Printf("(%v wall clock)\n", time.Since(start).Round(time.Millisecond)) //ellint:allow wallclock operator feedback, not a simulation result
	if !res.Passed() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "elchaos:", err)
	os.Exit(1)
}
