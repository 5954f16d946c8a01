// Command elreal runs a configured ephemeral-logging workload against the
// REAL backend: a file-backed log device with fsync durability
// (internal/realdev) driven by a wall-clock event loop
// (internal/realtime), in place of the paper's simulator. The same
// configuration files elsim runs accepted here measure, instead of model,
// the log's bandwidth, commit latency and minimum space.
//
// Usage:
//
//	elreal -init cfg.json             write the default configuration and exit
//	elreal -dir /var/tmp/ellog -config cfg.json -runtime 2
//	elreal -dir /var/tmp/ellog -compressed -runtime 1
//	elreal -dir /var/tmp/ellog -compressed -runtime 5 -metrics-addr :9188 -watch 1
//	elreal -dir /var/tmp/ellog -compressed -runtime 1 -trace-out trace.jsonl
//	elreal -dir /var/tmp/ellog -recover
//
// A run pays its runtime in actual wall time; the -compressed flag swaps
// in a 100x-compressed paper mix (10 ms and 50 ms transactions at 400 TPS)
// so smoke runs finish in about a second. -recover performs the
// single-pass scan/salvage recovery against whatever the directory holds —
// typically after a crashed or interrupted run — and reports what it
// found. The stable database is not persisted, so -recover starts it
// empty: every committed update in the log is applied.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"ellog/internal/config"
	"ellog/internal/obs"
	"ellog/internal/obs/live"
	"ellog/internal/realdev"
	"ellog/internal/recovery"
	"ellog/internal/sim"
	"ellog/internal/statedb"
	"ellog/internal/workload"
)

func main() {
	var (
		initPath   = flag.String("init", "", "write the default configuration JSON to this path and exit")
		configPath = flag.String("config", "", "configuration JSON to run (elsim's format)")
		dir        = flag.String("dir", "", "log directory (created if missing; an existing log is overwritten)")
		runtime    = flag.Float64("runtime", 0, "override: run duration in (wall-clock) seconds")
		seed       = flag.Uint64("seed", 0, "override: random seed for the workload schedule")
		compressed = flag.Bool("compressed", false, "use a 100x-compressed paper mix (10/50 ms transactions at 400 TPS)")
		direct     = flag.String("direct", "auto", "direct I/O: auto|on|off")
		jsonPath   = flag.String("json", "", "write the machine-readable result to this path")
		doRecover  = flag.Bool("recover", false, "recover from -dir instead of running a workload")
		verbose    = flag.Bool("v", false, "also print workload statistics")

		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics, /metrics.json and pprof on this address during the run (e.g. 127.0.0.1:9188 or :0)")
		watchSec    = flag.Float64("watch", 0, "print a one-line live dashboard to stderr at this cadence in seconds (0 = off)")
		traceOut    = flag.String("trace-out", "", "stream trace events to this file (eltrace-compatible; the loop clock is the trace clock)")
		probesOut   = flag.String("probes-out", "", "sample standard ellog_* probes and write the series JSON to this file")
		probeMS     = flag.Float64("probe-ms", 100, "probe sampling cadence in ms (with -probes-out)")
	)
	flag.Parse()

	if *initPath != "" {
		if err := config.Default().Save(*initPath); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote default configuration to %s\n", *initPath)
		return
	}
	if *dir == "" {
		fatal(fmt.Errorf("-dir is required (the log directory)"))
	}
	if *doRecover {
		runRecovery(*dir, *jsonPath)
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
	if *seed != 0 {
		cfg.Seed = *seed
	}
	hc, err := cfg.ToHarness()
	if err != nil {
		fatal(err)
	}
	if *compressed {
		hc.Workload.Mix = workload.Mix{
			{Name: "short-10ms", Prob: 0.8, Lifetime: 10 * sim.Millisecond, NumRecords: 2, RecordSize: 100},
			{Name: "long-50ms", Prob: 0.2, Lifetime: 50 * sim.Millisecond, NumRecords: 4, RecordSize: 100},
		}
		hc.Workload.ArrivalRate = 400
		if hc.Workload.NumObjects > 20_000 {
			n := uint64(10_000)
			hc.Workload.NumObjects = n
			hc.Flush.NumObjects = n
		}
		if hc.LM.GroupCommitTimeout == 0 || hc.LM.GroupCommitTimeout > 5*sim.Millisecond {
			hc.LM.GroupCommitTimeout = 5 * sim.Millisecond
		}
	}
	if *runtime > 0 {
		hc.Workload.Runtime = sim.Time(*runtime * float64(sim.Second))
	}

	rc := realdev.RunConfig{
		Seed:     hc.Seed,
		Dir:      *dir,
		LM:       hc.LM,
		Flush:    hc.Flush,
		Workload: hc.Workload,
		Device:   realdev.Options{Direct: realdev.DirectMode(*direct)},
	}
	ocfg := obs.Config{
		TracePath:      *traceOut,
		ProbesPath:     *probesOut,
		SampleInterval: sim.Time(*probeMS * float64(sim.Millisecond)),
	}

	var reg *live.Registry
	if *metricsAddr != "" || *watchSec > 0 {
		reg = live.NewRegistry()
		rc.Metrics = reg
	}
	var observer *obs.Observer // nil, and inert, when nothing is armed
	var srv *live.Server
	assembled := false
	watchDone := make(chan struct{})
	watchExited := make(chan struct{})
	rc.OnLive = func(l *realdev.Live) {
		assembled = true
		// The same observer elsim arms after harness.Build, on the loop's
		// clock.
		var err error
		observer, err = obs.New(l.Loop, l.Targets(), ocfg)
		if err != nil {
			fatal(err)
		}
		l.LM.SetTracer(observer.Sink())
		if *metricsAddr != "" {
			s, err := live.Serve(*metricsAddr, reg, l.Loop.Now)
			if err != nil {
				fatal(err)
			}
			srv = s
			fmt.Fprintf(os.Stderr, "elreal: serving metrics on http://%s/metrics (pprof at /debug/pprof/)\n", s.Addr())
		}
		if *watchSec > 0 {
			go watch(reg, *watchSec, watchDone, watchExited)
		} else {
			close(watchExited)
		}
	}

	// A failed or insufficient run is the one whose trace and probes get
	// read: every output is written before the exit status is decided.
	res, runErr := realdev.Run(rc)
	if !assembled {
		fatal(runErr) // nothing ran, so there is nothing to write
	}
	close(watchDone)
	<-watchExited
	if srv != nil {
		srv.Close()
	}
	if s := observer.Sampler(); s != nil {
		fmt.Printf("probes: %d series -> %s\n", len(s.Series()), *probesOut)
	}
	obsErr := observer.Close()
	printResult(rc, res, *verbose)
	if *jsonPath != "" {
		writeJSON(*jsonPath, map[string]any{
			"config":   cfg,
			"lm":       res.LM,
			"workload": res.Workload,
			"real":     res.Real,
		})
	}
	if runErr != nil {
		fatal(runErr)
	}
	if obsErr != nil {
		fatal(obsErr)
	}
	if res.Insufficient() {
		fatal(fmt.Errorf("insufficient log space: %d killed, %d emergency blocks, %d refugee stalls",
			res.Workload.Killed, res.LM.EmergencyBlocks, res.LM.RefugeeStalls))
	}
}

// watch prints one dashboard line per cadence to stderr until done
// closes. It only reads registry snapshots (atomic loads), so it never
// perturbs the run.
func watch(reg *live.Registry, sec float64, done <-chan struct{}, exited chan<- struct{}) {
	defer close(exited)
	t := time.NewTicker(time.Duration(sec * float64(time.Second)))
	defer t.Stop()
	prev := reg.Snapshot()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			cur := reg.Snapshot()
			fmt.Fprintln(os.Stderr, "elreal: "+live.WatchLine(prev, cur, sec))
			prev = cur
		}
	}
}

func printResult(rc realdev.RunConfig, res realdev.Result, verbose bool) {
	st, w, rs := res.LM, res.Workload, res.Real
	io := "buffered"
	if rs.Direct {
		io = "O_DIRECT"
	}
	fmt.Printf("real backend run: %s mode, %v wall clock, %s I/O (%d B slots) in %s\n",
		st.Mode, st.Elapsed, io, rs.SlotBytes, rc.Dir)
	fmt.Printf("\ntransactions: %d started, %d committed, %d killed\n", w.Started, w.Committed, w.Killed)
	fmt.Printf("\nmeasured bandwidth:\n")
	fmt.Printf("  %d block writes (%.1f writes/s), %.1f KB payload\n",
		st.TotalWrites, st.TotalBandwidth, float64(st.AppendedBytes)/1000)
	for i, g := range st.Gens {
		fmt.Printf("  gen %d: %d blocks, %d writes\n", i, g.Size, g.BlockWrites)
	}
	fmt.Printf("  %d fsync batches (max %d blocks), %d pipeline stalls\n",
		rs.Batches, rs.MaxBatchBlocks, rs.PipelineStalls)
	fmt.Printf("  fsync latency: mean %.2f, p50 %.2f, p95 %.2f, p99 %.2f, p999 %.2f ms\n",
		rs.BatchMeanMS, rs.BatchP50MS, rs.BatchP95MS, rs.BatchP99MS, rs.BatchP999MS)
	fmt.Printf("  batch size: mean %.1f blocks (p99 %.0f) in %.2f pwrites, mean %.1f KiB (p99 %.1f)\n",
		rs.BatchBlocksMean, rs.BatchBlocksP99, float64(rs.Pwrites)/float64(max(rs.Batches, 1)),
		rs.BatchBytesMean/1024, rs.BatchBytesP99/1024)
	fmt.Printf("\nmeasured latency:\n")
	fmt.Printf("  commit durability: mean %.2f ms, p99 %.2f ms\n", st.CommitDelayMean*1000, st.CommitDelayP99*1000)
	fmt.Printf("  end-to-end:        mean %.2f ms, p99 %.2f ms\n", w.EndToEndMean*1000, w.EndToEndP99*1000)
	fmt.Printf("\nmin-space view:\n")
	fmt.Printf("  %d log blocks configured (%d B file), insufficient: %v\n",
		st.TotalBlocks, rs.FileBytes, res.Insufficient())
	if verbose {
		fmt.Printf("\nworkload detail: per-type starts %v, LOT peak %.0f, LTT peak %.0f, mem peak %.0f B\n",
			w.PerType, st.LOTPeak, st.LTTPeak, st.MemPeakBytes)
	}
}

func runRecovery(dir, jsonPath string) {
	im, err := realdev.ReadImage(dir)
	if err != nil {
		fatal(err)
	}
	recovered, res, err := recovery.Recover(im, statedb.New(), 0)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("recovered %s: %d of %d slots readable (%d never written or torn at the frame)\n",
		dir, im.NumBlocks(), im.NumBlocks()+im.Skipped(), im.Skipped())
	fmt.Printf("  single pass: %d blocks, %d records, estimated read time %v\n",
		res.BlocksRead, res.RecordsRead, res.EstimatedTime)
	fmt.Printf("  %d winners, %d losers, %d in doubt\n", res.Winners, res.Losers, len(res.InDoubt))
	fmt.Printf("  torn blocks: %d (salvaged %d records from valid prefixes)\n", res.TornBlocks, res.SalvagedRecs)
	fmt.Printf("  applied %d updates (%d stale) to an empty stable database; %d objects recovered\n",
		res.Applied, res.Stale, recovered.Len())
	if jsonPath != "" {
		writeJSON(jsonPath, map[string]any{
			"slots_readable": im.NumBlocks(),
			"slots_skipped":  im.Skipped(),
			"result":         res,
		})
	}
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "elreal:", err)
	os.Exit(1)
}
