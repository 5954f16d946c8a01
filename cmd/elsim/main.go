// Command elsim runs a configured simulation of ephemeral or firewall
// logging and prints its report — the Go equivalent of the paper's C
// simulator binary (section 3).
//
// Usage:
//
//	elsim -init cfg.json          write the default configuration and exit
//	elsim -config cfg.json        run a configuration file
//	elsim -mode fw -gens 123      run ad hoc, overriding the defaults
//	elsim -seeds 8 -parallel 4    fan one configuration across 8 seeds
//	elsim -shards 4 -cross-frac 0.2 -gens 22,18
//	                              four shards with 2PC between them
//
// Every run is assembled by multilog.BuildPDES as max(1, shards) shards,
// each a logical process with its own log, flush drives and slice of the
// objects; one shard is the paper's single log, bit for bit. Every option
// works at any shard count. A configuration's faults section arms one
// fault plan per shard. Trace and probe outputs keep their path with one
// shard and take a .lpN suffix per shard above it. A run ends by crashing
// the whole machine and checking that recovery returns exactly the
// acknowledged commits.
//
// The default configuration is the paper's 5%-mix EL run at its measured
// minimum generation sizes (18+16 blocks, recirculation off).
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
	"ellog/internal/metrics"
	"ellog/internal/multilog"
	"ellog/internal/obs"
	"ellog/internal/recovery"
	"ellog/internal/runner"
	"ellog/internal/sim"
	"ellog/internal/trace"
)

func main() {
	var (
		initPath   = flag.String("init", "", "write the default configuration JSON to this path and exit")
		configPath = flag.String("config", "", "configuration JSON to run")
		mode       = flag.String("mode", "", "override: el or fw")
		gens       = flag.String("gens", "", "override: comma-separated generation sizes in blocks, e.g. 18,16")
		recirc     = flag.Bool("recirc", false, "override: enable recirculation in the last generation")
		runtime    = flag.Float64("runtime", 0, "override: simulated seconds")
		fracLong   = flag.Float64("long", -1, "override: fraction of 10s transactions in the paper mix")
		seed       = flag.Uint64("seed", 0, "override: random seed")
		flushMS    = flag.Int64("flush-ms", 0, "override: per-object flush transfer time in ms")
		verbose    = flag.Bool("v", false, "also print workload statistics")
		traceN     = flag.Int("trace", 0, "dump the last N logging-manager trace events")
		seeds      = flag.Int("seeds", 1, "fan the configuration across this many consecutive seeds")
		parallel   = flag.Int("parallel", 0, "max concurrent simulations when -seeds > 1 (0 = GOMAXPROCS)")
		traceOut   = flag.String("trace-out", "", "stream every trace event to this file (inspect with eltrace)")
		probesOut  = flag.String("probes-out", "", "sample standard probes and write the series JSON to this file")
		probeMS    = flag.Int64("probe-ms", 0, "probe sampling cadence in simulated ms (default 100)")
		plot       = flag.String("plot", "", "after the run, ASCII-plot the first sampled series whose name contains this substring (needs -probes-out)")
		shards     = flag.Int("shards", 0, "override: run as this many shared-nothing shards, each at the full arrival rate")
		crossFrac  = flag.Float64("cross-frac", -1, "override: share of each shard's arrivals that span two shards (needs -shards)")
	)
	flag.Parse()

	if *initPath != "" {
		if err := config.Default().Save(*initPath); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote default configuration to %s\n", *initPath)
		return
	}

	cfg := config.Default()
	if *configPath != "" {
		var err error
		cfg, err = config.Load(*configPath)
		if err != nil {
			fatal(err)
		}
	}
	if *mode != "" {
		cfg.Mode = *mode
	}
	if *gens != "" {
		var sizes []int
		for _, part := range strings.Split(*gens, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatal(fmt.Errorf("bad -gens %q: %w", *gens, err))
			}
			sizes = append(sizes, n)
		}
		cfg.Generations = sizes
	}
	if *recirc {
		cfg.Recirculate = true
	}
	if *runtime > 0 {
		cfg.RuntimeS = *runtime
	}
	if *fracLong >= 0 {
		cfg.Mix = []config.TxTypeJSON{
			{Name: "short-1s", Prob: 1 - *fracLong, LifetimeMS: 1000, NumRecords: 2, RecordSize: 100},
			{Name: "long-10s", Prob: *fracLong, LifetimeMS: 10000, NumRecords: 4, RecordSize: 100},
		}
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *flushMS > 0 {
		cfg.FlushTransferMS = *flushMS
	}
	if *shards > 0 {
		cfg.Shards = *shards
	}
	if *crossFrac >= 0 {
		cfg.CrossFrac = *crossFrac
	}

	// Observability: the config's section is the base; flags override.
	var ocfg obs.Config
	if cfg.Observability != nil {
		ocfg = cfg.Observability.ToObs()
	}
	if *traceOut != "" {
		ocfg.TracePath = *traceOut
	}
	if *probesOut != "" {
		ocfg.ProbesPath = *probesOut
	}
	if *probeMS > 0 {
		ocfg.SampleInterval = sim.Time(*probeMS) * sim.Millisecond
	}

	if *seeds > 1 {
		if *traceN > 0 || ocfg.Armed() || (cfg.Faults != nil && cfg.Faults.ToFault().Active()) {
			fatal(fmt.Errorf("-trace, -trace-out, -probes-out and fault injection need a single run; drop -seeds (or use elchaos)"))
		}
		runSeeds(cfg, *seeds, *parallel, *verbose)
		return
	}
	run(cfg, ocfg, *traceN, *plot, *verbose)
}

// build assembles cfg as a run of max(1, cfg.Shards) shards without
// executing it: the one place elsim builds a simulation.
func build(cfg config.SimConfig) (*multilog.PDESLive, error) {
	pcfg, err := cfg.ToPDES()
	if err != nil {
		return nil, err
	}
	return multilog.BuildPDES(pcfg)
}

// describe names the run: technique, generations and runtime, plus the
// shard count and cross-shard share when there is more than one shard.
func describe(cfg config.SimConfig) string {
	d := fmt.Sprintf("%s, generations %v (recirculation %v), %s",
		strings.ToUpper(cfg.Mode), cfg.Generations, cfg.Recirculate, sim.Time(cfg.RuntimeS*float64(sim.Second)))
	if cfg.Shards > 1 {
		d += fmt.Sprintf(", %d shards (cross frac %.2f)", cfg.Shards, cfg.CrossFrac)
	}
	return d
}

// run executes one simulation, prints its report, and crashes and
// recovers the whole machine against the acknowledged commits. A shard's
// fault plan, flight recorder, trace stream and probe sampler all live on
// its own logical process.
func run(cfg config.SimConfig, ocfg obs.Config, traceN int, plot string, verbose bool) {
	live, err := build(cfg)
	if err != nil {
		fatal(err)
	}
	n := len(live.Shards)
	fmt.Printf("running %s, seed %d\n", describe(cfg), cfg.Seed)
	// Arm fault plans only when the configuration asks for them; a run with
	// no (or an all-zero) faults section is byte-identical to a build
	// without the fault package.
	var fc fault.Config
	if cfg.Faults != nil {
		fc = cfg.Faults.ToFault()
	}
	var plans []*fault.Plan
	if fc.Active() {
		if plans, err = live.AttachFaults(fc); err != nil {
			fatal(err)
		}
		fmt.Printf("fault plan armed: seed %d, write-fail %.3f, corrupt %.3f, slow %.3f, stall %.3f\n",
			fc.Seed, fc.WriteFailProb, fc.CorruptProb, fc.SlowProb, fc.StallProb)
	}
	rings := make([]*trace.Ring, n)
	observers := make([]*obs.Observer, n)
	for i, s := range live.Shards {
		scfg := ocfg
		scfg.TracePath, scfg.ProbesPath = obs.ShardPath(ocfg.TracePath, i, n), obs.ShardPath(ocfg.ProbesPath, i, n)
		if observers[i], err = obs.New(s.LP.Engine, obs.SetupTargets(s.Setup), scfg); err != nil {
			fatal(err)
		}
		// One sink feeds the flight recorder and the trace file; nil stays
		// nil (a nil *Ring would be a non-nil Sink) so an unobserved run
		// keeps the manager's hot path gate closed.
		var ringSink trace.Sink
		if traceN > 0 {
			rings[i] = trace.NewRing(traceN)
			ringSink = rings[i]
		}
		if sink := obs.Multi(ringSink, observers[i].Sink()); sink != nil {
			s.Setup.LM.SetTracer(sink)
			if plans != nil {
				plans[i].SetTracer(sink)
			}
		}
	}
	live.Run()
	st := live.Stats()
	for i, ls := range st.PerShard {
		if n > 1 {
			fmt.Printf("--- shard %d ---\n", i)
		}
		fmt.Print(ls)
	}
	if verbose || n > 1 {
		fmt.Print(st)
	}
	if plans != nil {
		var ps fault.Stats
		for _, p := range plans {
			ps.Add(p.Stats())
		}
		fmt.Printf("faults injected: %d write failures, %d corruptions, %d slowdowns, %d stalls\n",
			ps.WriteFails, ps.Corruptions, ps.Slowdowns, ps.Stalls)
	}
	for i, ring := range rings {
		if ring != nil {
			fmt.Printf("--- shard %d: last %d trace events ---\n%s", i, traceN, ring.Dump(traceN))
		}
	}
	plotted := plot == ""
	for i, o := range observers {
		if s := o.Sampler(); s != nil {
			fmt.Printf("probes: %d series, %d ticks at %v cadence -> %s\n",
				len(s.Series()), s.Ticks(), s.Interval(), obs.ShardPath(ocfg.ProbesPath, i, n))
			if sr, ok := s.Find(plot); ok && !plotted {
				pts := metrics.Series{Name: sr.Name}
				for _, p := range sr.Points {
					pts.Add(p.At.Seconds(), p.Mean)
				}
				fmt.Print(metrics.AsciiPlot(sr.Name, 72, 14, pts))
				plotted = true
			}
		}
		if err := o.Close(); err != nil {
			fatal(err)
		}
		if path := obs.ShardPath(ocfg.TracePath, i, n); path != "" {
			fmt.Printf("trace streamed to %s (inspect with: go run ./cmd/eltrace -in %s)\n", path, path)
		}
	}
	if !plotted {
		fmt.Printf("no sampled series matches %q\n", plot)
	}
	merged, report, err := multilog.RecoverAll(live.Setups(), 0)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("recovery: parallel %v (serial %v), %d in-doubt branches (%d resolved commit, %d presumed abort)\n",
		report.ParallelTime, report.SerialTime, report.InDoubt, report.ResolvedCommit, report.ResolvedAbort)
	if fc.CorruptProb > 0 {
		// Silent corruption may legitimately discard durable suffixes, so
		// the strict oracle does not apply.
		fmt.Println("recovery not verified: corruption armed")
	} else if err := recovery.VerifyOracle(merged, live.Oracle()); err != nil {
		fmt.Printf("recovery verification FAILED: %v\n", err)
		os.Exit(2)
	} else {
		fmt.Println("recovery verified: recovered state matches every acknowledged commit")
	}
	if live.Insufficient() {
		fmt.Println("verdict: INSUFFICIENT disk space for this workload")
		os.Exit(2)
	}
	fmt.Println("verdict: disk space sufficient (no transactions killed)")
}

// runSeeds fans one configuration across n consecutive seeds through a
// worker pool and prints a per-seed summary line in seed order. Each
// simulation stays single-threaded and deterministic; only whole runs fan
// out, so every line is the same one a sequential loop would print.
func runSeeds(cfg config.SimConfig, n, parallel int, verbose bool) {
	fmt.Printf("running %s, seeds %d..%d\n", describe(cfg), cfg.Seed, cfg.Seed+uint64(n)-1)
	stats := make([]multilog.PDESStats, n)
	pool := runner.New(parallel)
	start := time.Now() //ellint:allow wallclock operator feedback on run cost
	err := pool.ForEach(n, func(i int) error {
		return pool.Do(func() error {
			c := cfg
			c.Seed = cfg.Seed + uint64(i)
			live, err := build(c)
			if err != nil {
				return err
			}
			live.Run()
			stats[i] = live.Stats()
			return nil
		})
	})
	if err != nil {
		fatal(err)
	}
	failed := 0
	for i, st := range stats {
		var emergency, stalls uint64
		for _, ls := range st.PerShard {
			emergency += ls.EmergencyBlocks
			stalls += ls.RefugeeStalls
		}
		verdict := "sufficient"
		if st.Killed+emergency+stalls > 0 { // core.Stats.Insufficient, summed over shards
			verdict = "INSUFFICIENT"
			failed++
		}
		fmt.Printf("seed %-4d %-12s killed=%d emergency=%d stalls=%d writes/s=%.3f\n",
			cfg.Seed+uint64(i), verdict, st.Killed, emergency, stalls, st.Bandwidth)
		if verbose {
			fmt.Printf("  %d started, %d committed; end-to-end mean %.3fs p99 %.3fs\n",
				st.Started, st.Committed, st.E2EMean, st.E2EP99)
		}
	}
	fmt.Printf("(%d runs on %d workers in %v wall clock)\n",
		n, pool.Workers(), time.Since(start).Round(time.Millisecond)) //ellint:allow wallclock operator feedback, not a simulation result
	if failed > 0 {
		fmt.Printf("verdict: INSUFFICIENT disk space for %d of %d seeds\n", failed, n)
		os.Exit(2)
	}
	fmt.Println("verdict: disk space sufficient for every seed")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "elsim:", err)
	os.Exit(1)
}
