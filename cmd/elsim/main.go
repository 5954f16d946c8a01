// Command elsim runs a single configured simulation of ephemeral or
// firewall logging and prints its report — the Go equivalent of the
// paper's C simulator binary (section 3).
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
// The default configuration is the paper's 5%-mix EL run at its measured
// minimum generation sizes (18+16 blocks, recirculation off).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"ellog/internal/config"
	"ellog/internal/fault"
	"ellog/internal/harness"
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
		shards     = flag.Int("shards", 0, "override: run as this many shared-nothing shards, each at the full arrival rate (multilog; >= 2)")
		crossFrac  = flag.Float64("cross-frac", -1, "override: share of each shard's arrivals that span two shards (needs -shards)")
		pdes       = flag.Int("pdes", 0, "worker goroutines for the shards' logical processes (default 1, the sequential reference execution; alone, runs one shard as one LP)")
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

	if *pdes > 0 || cfg.Shards > 1 {
		if *seeds > 1 || *traceN > 0 {
			fatal(fmt.Errorf("sharded runs support neither -seeds nor -trace yet"))
		}
		if cfg.Shards < 1 {
			cfg.Shards = 1 // single-LP run: the sequential reduction
		}
		runPDES(cfg, max(*pdes, 1), *traceOut, *probesOut, *probeMS, *verbose)
		return
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

	hcfg, err := cfg.ToHarness()
	if err != nil {
		fatal(err)
	}
	if *seeds > 1 {
		if *traceN > 0 {
			fatal(fmt.Errorf("-trace needs a single run; drop -seeds"))
		}
		if ocfg.Armed() {
			fatal(fmt.Errorf("-trace-out/-probes-out need a single run; drop -seeds"))
		}
		if cfg.Faults != nil && cfg.Faults.ToFault().Active() {
			fatal(fmt.Errorf("fault injection needs a single run; drop -seeds (or use elchaos)"))
		}
		runSeeds(cfg, hcfg, *seeds, *parallel, *verbose)
		return
	}
	fmt.Printf("running %s, generations %v (recirculation %v), %s, seed %d\n",
		strings.ToUpper(cfg.Mode), cfg.Generations, cfg.Recirculate,
		sim.Time(cfg.RuntimeS*float64(sim.Second)), cfg.Seed)
	live, err := harness.Build(hcfg)
	if err != nil {
		fatal(err)
	}
	observer, err := obs.New(live.Setup.Eng, obs.SetupTargets(live.Setup), ocfg)
	if err != nil {
		fatal(err)
	}
	// One composed sink feeds both the flight-recorder ring and the
	// streaming trace file; nil stays nil so an unobserved run keeps the
	// manager's hot path gate closed. The ring only enters the composition
	// when armed — a nil *Ring in a Sink slot would be a non-nil interface.
	var ring *trace.Ring
	var ringSink trace.Sink
	if *traceN > 0 {
		ring = trace.NewRing(*traceN)
		ringSink = ring
	}
	sink := obs.Multi(ringSink, observer.Sink())
	if sink != nil {
		live.Setup.LM.SetTracer(sink)
	}
	// Arm the fault plan only when the configuration asks for one; a run
	// with no (or an all-zero) faults section is byte-identical to a build
	// without the fault package.
	var plan *fault.Plan
	if cfg.Faults != nil {
		if fc := cfg.Faults.ToFault(); fc.Active() {
			plan, err = fault.Attach(live.Setup, fc)
			if err != nil {
				fatal(err)
			}
			if sink != nil {
				plan.SetTracer(sink)
			}
			fmt.Printf("fault plan armed: seed %d, write-fail %.3f, corrupt %.3f, slow %.3f, stall %.3f\n",
				fc.Seed, fc.WriteFailProb, fc.CorruptProb, fc.SlowProb, fc.StallProb)
		}
	}
	live.Setup.Eng.Run(hcfg.Workload.Runtime)
	res := harness.Result{LM: live.Setup.LM.Stats(), Workload: live.Gen.Stats()}
	fmt.Print(res.LM)
	if plan != nil {
		ps := plan.Stats()
		fmt.Printf("faults injected: %d write failures, %d corruptions, %d slowdowns, %d stalls\n",
			ps.WriteFails, ps.Corruptions, ps.Slowdowns, ps.Stalls)
	}
	if *verbose {
		ws := res.Workload
		fmt.Printf("workload: %d started, %d committed, %d killed; end-to-end mean %.3fs p99 %.3fs\n",
			ws.Started, ws.Committed, ws.Killed, ws.EndToEndMean, ws.EndToEndP99)
		names := make([]string, 0, len(ws.PerType))
		for name := range ws.PerType {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-12s %d\n", name, ws.PerType[name])
		}
	}
	if ring != nil {
		fmt.Printf("--- last %d trace events ---\n%s", *traceN, ring.Dump(*traceN))
	}
	if s := observer.Sampler(); s != nil {
		fmt.Printf("probes: %d series, %d ticks at %v cadence -> %s\n",
			len(s.Series()), s.Ticks(), s.Interval(), ocfg.ProbesPath)
		if *plot != "" {
			if sr, ok := s.Find(*plot); ok {
				pts := metrics.Series{Name: sr.Name}
				for _, p := range sr.Points {
					pts.Add(p.At.Seconds(), p.Mean)
				}
				fmt.Print(metrics.AsciiPlot(sr.Name, 72, 14, pts))
			} else {
				fmt.Printf("no sampled series matches %q\n", *plot)
			}
		}
	}
	if err := observer.Close(); err != nil {
		fatal(err)
	}
	if ocfg.TracePath != "" {
		fmt.Printf("trace streamed to %s (inspect with: go run ./cmd/eltrace -in %s)\n",
			ocfg.TracePath, ocfg.TracePath)
	}
	if res.Insufficient() {
		fmt.Println("verdict: INSUFFICIENT disk space for this workload")
		os.Exit(2)
	}
	fmt.Println("verdict: disk space sufficient (no transactions killed)")
}

// runPDES executes the configuration as a sharded run: shards become
// logical processes of a parallel discrete-event simulation under
// conservative synchronization, and at the end the whole machine is
// crashed and recovered against the acknowledged commits. The worker count
// is pure scheduling and is printed to stderr only — stdout (and the
// per-LP trace files) are a fixed function of (seed, config), which is
// exactly what the CI determinism matrix diffs across worker counts.
func runPDES(cfg config.SimConfig, workers int, traceOut, probesOut string, probeMS int64, verbose bool) {
	pcfg, err := cfg.ToPDES(workers)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pdes: %d workers\n", workers)
	fmt.Printf("running %s x %d LPs (cross frac %.2f), generations %v (recirculation %v), %s, seed %d\n",
		strings.ToUpper(cfg.Mode), pcfg.Shards, pcfg.CrossFrac, cfg.Generations, cfg.Recirculate,
		sim.Time(cfg.RuntimeS*float64(sim.Second)), cfg.Seed)
	live, err := multilog.BuildPDES(pcfg)
	if err != nil {
		fatal(err)
	}
	// Tracing stays LP-local: each shard streams to its own file, so the
	// union of files is worker-invariant even though no global event order
	// exists during a window.
	var observers []*obs.Observer
	if traceOut != "" {
		for i, s := range live.Shards {
			ocfg := obs.Config{TracePath: fmt.Sprintf("%s.lp%d", traceOut, i)}
			o, err := obs.New(s.LP.Engine, obs.SetupTargets(s.Setup), ocfg)
			if err != nil {
				fatal(err)
			}
			s.Setup.LM.SetTracer(o.Sink())
			observers = append(observers, o)
		}
	}
	// Probe sampling is LP-local too: each shard gets its own sampler
	// ticking on its own engine and reading only that shard's state, so
	// the ticks never cross an LP boundary. Series names carry an lp=
	// label on top of the canonical schema, and the merged dump
	// concatenates per-LP snapshots in LP-index order — a fixed function
	// of (seed, config) for any worker count, which is what the CI
	// determinism matrix diffs.
	var samplers []*obs.Sampler
	if probesOut != "" {
		interval := sim.Time(probeMS) * sim.Millisecond
		for i, s := range live.Shards {
			smp := obs.NewSampler(s.LP.Engine, interval, 0)
			lp := strconv.Itoa(i)
			for _, p := range obs.StandardProbes(obs.SetupTargets(s.Setup)) {
				smp.Register(obs.WithLabel(p.Name, "lp", lp), p.Fn)
			}
			smp.Start()
			samplers = append(samplers, smp)
		}
	}
	live.Run()
	st := live.Stats()
	fmt.Print(st)
	if verbose {
		for i, ps := range st.PerShard {
			fmt.Printf("--- shard %d ---\n%s", i, ps)
		}
	}
	for _, o := range observers {
		if err := o.Close(); err != nil {
			fatal(err)
		}
	}
	if traceOut != "" {
		fmt.Printf("traces streamed to %s.lp0 .. %s.lp%d\n", traceOut, traceOut, len(live.Shards)-1)
	}
	if probesOut != "" {
		var series []obs.Series
		for _, smp := range samplers {
			series = append(series, smp.Series()...)
		}
		f, err := os.Create(probesOut)
		if err != nil {
			fatal(err)
		}
		err = obs.WriteSeriesJSON(f, samplers[0].Interval(), series)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		// Every LP ticks to the same horizon at the same cadence, so any
		// sampler's tick count describes them all.
		fmt.Printf("probes: %d series across %d LPs, %d ticks at %v cadence -> %s\n",
			len(series), len(samplers), samplers[0].Ticks(), samplers[0].Interval(), probesOut)
	}
	merged, report, err := multilog.RecoverAll(live.Setups(), 0)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("recovery: parallel %v (serial %v), %d in-doubt branches (%d resolved commit, %d presumed abort)\n",
		report.ParallelTime, report.SerialTime, report.InDoubt, report.ResolvedCommit, report.ResolvedAbort)
	if err := recovery.VerifyOracle(merged, live.Oracle()); err != nil {
		fmt.Printf("recovery verification FAILED: %v\n", err)
		os.Exit(2)
	}
	fmt.Println("recovery verified: recovered state matches every acknowledged commit")
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
func runSeeds(cfg config.SimConfig, base harness.Config, n, parallel int, verbose bool) {
	fmt.Printf("running %s, generations %v (recirculation %v), %s, seeds %d..%d\n",
		strings.ToUpper(cfg.Mode), cfg.Generations, cfg.Recirculate,
		sim.Time(cfg.RuntimeS*float64(sim.Second)), base.Seed, base.Seed+uint64(n)-1)
	cfgs := make([]harness.Config, n)
	for i := range cfgs {
		cfgs[i] = base
		cfgs[i].Seed = base.Seed + uint64(i)
	}
	pool := runner.New(parallel)
	start := time.Now() //ellint:allow wallclock operator feedback on run cost
	results, err := pool.RunAll(cfgs)
	if err != nil {
		fatal(err)
	}
	insufficient := 0
	for i, res := range results {
		verdict := "sufficient"
		if res.Insufficient() {
			verdict = "INSUFFICIENT"
			insufficient++
		}
		fmt.Printf("seed %-4d %-12s killed=%d emergency=%d stalls=%d writes/s=%.3f\n",
			cfgs[i].Seed, verdict, res.Workload.Killed,
			res.LM.EmergencyBlocks, res.LM.RefugeeStalls, res.LM.TotalBandwidth)
		if verbose {
			ws := res.Workload
			fmt.Printf("  %d started, %d committed; end-to-end mean %.3fs p99 %.3fs\n",
				ws.Started, ws.Committed, ws.EndToEndMean, ws.EndToEndP99)
		}
	}
	fmt.Printf("(%d runs on %d workers in %v wall clock)\n",
		n, pool.Workers(), time.Since(start).Round(time.Millisecond)) //ellint:allow wallclock operator feedback, not a simulation result
	if insufficient > 0 {
		fmt.Printf("verdict: INSUFFICIENT disk space for %d of %d seeds\n", insufficient, n)
		os.Exit(2)
	}
	fmt.Println("verdict: disk space sufficient for every seed")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "elsim:", err)
	os.Exit(1)
}
