package main

import (
	"fmt"
	"os"
	"runtime"

	"ellog/internal/blockdev"
	"ellog/internal/sim"
	"ellog/internal/statedb"
)

// env is what every workload is run with.
type env struct {
	seed    uint64
	seconds float64 // length of the timed phase
	scratch string  // directory real runs create their log directories in
	spans   bool    // keep spans for -trace-out
	tiny    bool    // test scale: small simulated frames
}

// setupReps is how many times each workload sets up; setup_s is the median.
const setupReps = 3

// Recovery of a crash image is timed by recovering it over and over — at
// least recoverMinReps times, and for env.recoverBudget — and taking the
// lower quartile (see lowerQuartile): the first read of a real log may come
// off the device, the rest come off the page cache, so this is the
// page-cache-warm figure. The heap is collected before every repetition,
// untimed: a recovery allocates a few megabytes, and whether a collection
// cycle lands inside it would otherwise be the largest term in its time.
// Nine repetitions are the floor because real-saturate's 150 ms recovery
// gets no more than the floor, and with five its time still moved 11 %
// between runs.
const recoverMinReps = 9

// recoverBudget is 6 % of the timed phase: 0.6 s of a 10 s run.
func (e env) recoverBudget() int64 { return int64(e.seconds * 0.06e9) }

// repeatRecovery calls once until both the repetition floor and the time
// budget are met.
func repeatRecovery(budgetNS int64, once func() error) error {
	deadline := nowNS() + budgetNS
	for n := 0; n < recoverMinReps || nowNS() < deadline; n++ {
		runtime.GC()
		if err := once(); err != nil {
			return err
		}
	}
	return nil
}

// scanRepeatedly scans the crashed log in dir for budgetNS, keeping every
// scan's timings and the last scan's image and database.
func scanRepeatedly(dir string, db *statedb.DB, budgetNS int64) ([]scan, error) {
	var scans []scan
	err := repeatRecovery(budgetNS, func() error {
		s, err := scanOnce(dir, db)
		if n := len(scans); n > 0 {
			scans[n-1].img, scans[n-1].db = nil, nil
		}
		scans = append(scans, s)
		return err
	})
	return scans, err
}

func (e env) logDir(name string) (string, error) {
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.scratch, name+"-*")
}

// realPass is one real load driven to its horizon and crashed.
type realPass struct {
	r       *realRun
	buildNS int64 // assembling the run: set-up, not load
	timed   realTimed
	cr      crashed
	ls      loadStats
	c       driverCounts
}

// cost is the host cost of one commit in the pass, the quantity
// bench.trace_overhead_share compares: wall time per commit when the loop
// is closed, the median latency when the rate — and so the wall time — is
// fixed.
func (ps *realPass) cost() float64 {
	if ps.r.p.Loop == "open" {
		return ps.ls.p50
	}
	return ratio(float64(ps.timed.wallNS), float64(ps.ls.acked))
}

// per100TPS scales a real run's block-write rate to the paper's load of 100
// transactions per second, so el_log_writes_per_s means the same thing on
// every workload and a faster closed loop is not charged for writing more.
// The load is the offered rate when the loop is open, the achieved one when
// it is closed.
func per100TPS(writesPerSec float64, ps *realPass) float64 {
	load := ps.r.p.Rate
	if ps.r.p.Loop == "closed" {
		load = ps.ls.tput
	}
	return ratio(writesPerSec, load/100)
}

// driveReal assembles a run in dir, drives it for secs, drains and crashes
// it — with tear, in the middle of a final block write. The log directory is
// left for the caller to scan and remove.
func driveReal(e env, p realParams, dir string, secs float64, kit *traceKit, tear bool) (*realPass, error) {
	horizon := sim.Time(secs * float64(sim.Second))
	t0 := nowNS()
	r, err := buildReal(p, dir, e.seed, horizon, kit)
	if err != nil {
		return nil, err
	}
	ps := &realPass{r: r, buildNS: nowNS() - t0}
	ps.timed = r.run(horizon)
	var torn []blockdev.BlockID
	if tear {
		torn = r.tearFinalWrite()
	}
	if ps.cr, err = r.crash(); err != nil {
		return nil, err
	}
	if err := cutSlots(dir, r.slot, torn); err != nil {
		return nil, err
	}
	ps.ls, ps.c = r.drv.loadStats(), r.drv.counts()
	return ps, nil
}

// throwaway drives a real load that is not the measured one — a set-up
// warm-up, or the traced pass's untraced reference — and removes its log.
func throwaway(e env, name string, p realParams, secs float64) (*realPass, error) {
	dir, err := e.logDir(name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	return driveReal(e, p, dir, secs, nil, false)
}

// runRealLoad is real-paced and real-saturate: set up, drive the load for
// the timed phase, drain, crash, recover, verify.
func runRealLoad(e env, name string, p realParams, traced bool) (result, error) {
	res := result{Correct: true, Params: p, Detail: map[string]any{}}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := nowNS()
		if _, err := throwaway(e, name+"-warm", p, p.WarmSeconds); err != nil {
			return res, err
		}
		setups = append(setups, seconds(nowNS()-t0))
	}
	var kit *traceKit
	var ref *realPass
	if traced {
		// The traced pass carries its own untraced reference, a quarter as
		// long, for bench.trace_overhead_share.
		var err error
		if ref, err = throwaway(e, name+"-ref", p, p.Seconds/4); err != nil {
			return res, err
		}
		kit = newTraceKit(e.spans)
		res.tracer = kit.t
	}
	dir, err := e.logDir(name)
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	ps, err := driveReal(e, p, dir, p.Seconds, kit, false)
	if err != nil {
		return res, err
	}
	timed, cr, ls, c := ps.timed, ps.cr, ps.ls, ps.c

	scans, err := scanRepeatedly(dir, ps.r.db, e.recoverBudget())
	if err != nil {
		return res, err
	}
	lost, verr := verifyOracle(scans[len(scans)-1].db, cr.oracle)

	res.Attempted = c.begun
	res.Failed = c.killed + c.unacked + lost
	if cr.lm.EmergencyBlocks > 0 || cr.lm.RefugeeStalls > 0 {
		res.Failed = res.Attempted
		res.fail("log space ran out: %d emergency blocks, %d refugee stalls", cr.lm.EmergencyBlocks, cr.lm.RefugeeStalls)
	}
	if c.killed > 0 {
		res.fail("%d transactions killed", c.killed)
	}
	if !timed.drained {
		res.fail("%d commits unacknowledged after the %v drain", c.unacked, drainGrace)
	}
	if verr != nil {
		res.fail("oracle: %d objects lost or stale: %v", lost, verr)
	}
	if p.Loop == "closed" {
		// The flush array must not be what limits the saturation run: its
		// drives are mostly idle, and nearly every committed update (two per
		// commit) was flushed or is queued to be, not superseded in the log.
		fl := cr.lm.Flush
		if fl.BusyFrac >= 0.5 || float64(fl.Flushes)+float64(fl.PendingNow) < 1.9*float64(c.acked) {
			res.fail("flush array limits the run: busy %.2f, %d flushes + %d pending for %d commits", fl.BusyFrac, fl.Flushes, fl.PendingNow, c.acked)
		}
	}
	if p.Loop == "open" && ls.lateP99 > lateLimitUS {
		res.Notes = append(res.Notes, fmt.Sprintf("unresolved: driver ran late (p99 %.0f µs > %d µs), latencies include generator delay", ls.lateP99, lateLimitUS))
	}

	res.E2E = values{
		"sim_speed_x":         ratio(p.Seconds, seconds(timed.wallNS)),
		"search_wall_s":       seconds(timed.wallNS),
		"el_min_blocks":       float64(cr.lm.TotalBlocks),
		"el_log_writes_per_s": per100TPS(cr.lm.TotalBandwidth, ps),
		"commit_tput_per_s":   ls.tput,
		"commit_p50_ms":       ls.p50,
		"commit_p99_ms":       ls.p99,
		"write_amp_x":         ratio(float64(cr.dev.Writes)*float64(cr.rs.SlotBytes), float64(cr.lm.AppendedBytes)),
		"recovery_ms":         lowerQuartile(scanMS(scans, func(s scan) int64 { return s.readNS + s.recoverNS })),
		"alloc_b_per_op":      ratio(float64(timed.allocBytes), float64(ls.acked)),
		"ok_share":            res.okShare(),
		"setup_s":             median(setups) + seconds(ps.buildNS),
	}
	res.Detail["commit_samples"] = ls.acked
	res.Detail["gen_used_peak"] = genPeaks(cr)
	res.Detail["setup_s_all"] = setups
	res.Detail["begun"], res.Detail["acked"], res.Detail["killed"], res.Detail["unacked"] = c.begun, c.acked, c.killed, c.unacked

	res.Layers = values{}
	loadLayers(res.Layers, ls)
	crashLayers(res.Layers, cr, c.acked)
	scanLayers(res.Layers, scans)
	if kit != nil {
		spanLayers(res.Layers, kit, timed.agg, timed.wallNS, c.begun)
		res.Layers["realtime.loop_busy_share"] = ratio(float64(timed.agg.top), float64(timed.wallNS))
		late := sorted(kit.late)
		res.Layers["realtime.timer_late_us_p50"] = quantile(late, 0.5)
		res.Layers["realtime.timer_late_us_p99"] = quantile(late, 0.99)
		w2d := sorted(kit.stages.writeToDone)
		res.Layers["realdev.write_self_ns"] = timed.agg.nsPerCall(spDevWrite)
		res.Layers["realdev.write_to_done_ms_p50"] = quantile(w2d, 0.5)
		res.Layers["realdev.write_to_done_ms_p99"] = quantile(w2d, 0.99)
		res.Layers["realdev.group_wait_ms_p50"] = quantile(w2d, 0.5) - cr.rs.BatchP50MS
		res.Layers["bench.trace_overhead_share"] = ratio(ps.cost(), ref.cost()) - 1
	}
	return res, nil
}

// genPeaks is each generation's peak occupancy in blocks: how close the run
// came to running out of log.
func genPeaks(cr crashed) []float64 {
	var peaks []float64
	for _, g := range cr.lm.Gens {
		peaks = append(peaks, g.UsedPeak)
	}
	return peaks
}

func scanMS(scans []scan, ns func(scan) int64) []float64 {
	out := make([]float64, len(scans))
	for i, s := range scans {
		out[i] = millis(ns(s))
	}
	return out
}

// loadLayers reports the benchmark's own generator: whether its latencies
// can be trusted.
func loadLayers(out values, ls loadStats) {
	out["driver.late_us_p99"] = ls.lateP99
	out["driver.slo_miss_share"] = ls.sloMissShare
	out["driver.offered_per_s"] = ls.offeredPerSec
}

// crashLayers reports the counters the manager, the flush array and the
// device kept up to the crash.
func crashLayers(out values, cr crashed, commits int) {
	out["core.block_writes"] = float64(cr.lm.TotalWrites)
	out["core.appended_bytes"] = float64(cr.lm.AppendedBytes)
	out["core.forwarded_recs"] = float64(cr.lm.Forwarded)
	out["core.recirculated_recs"] = float64(cr.lm.Recirculated)
	out["core.buffer_stalls"] = float64(cr.lm.BufferStalls)
	out["core.mem_peak_bytes"] = cr.lm.MemPeakBytes
	out["flushdisk.flushes"] = float64(cr.lm.Flush.Flushes)
	out["flushdisk.forced"] = float64(cr.lm.Flush.Forced)
	out["flushdisk.max_pending"] = float64(cr.lm.Flush.MaxPending)
	out["flushdisk.busy_frac"] = cr.lm.Flush.BusyFrac
	out["realdev.batch_ms_p50"] = cr.rs.BatchP50MS
	out["realdev.batch_ms_p99"] = cr.rs.BatchP99MS
	out["realdev.blocks_per_batch_mean"] = cr.rs.BatchBlocksMean
	out["realdev.fsyncs_per_commit"] = ratio(float64(cr.rs.Fsyncs), float64(commits))
	out["realdev.pipeline_stalls"] = float64(cr.rs.PipelineStalls)
	out["realdev.physical_bytes"] = float64(cr.dev.Writes) * float64(cr.rs.SlotBytes)
	out["realdev.logical_bytes"] = float64(cr.lm.AppendedBytes)
	out["realdev.slot_bytes"] = float64(cr.rs.SlotBytes)
	if cr.rs.Direct {
		out["realdev.direct_io"] = 1
	}
}

// scanLayers reports the read side: lower quartiles over the scans of one
// image, like recovery_ms.
func scanLayers(out values, scans []scan) {
	last := scans[len(scans)-1]
	readMS := lowerQuartile(scanMS(scans, func(s scan) int64 { return s.readNS }))
	recMS := lowerQuartile(scanMS(scans, func(s scan) int64 { return s.recoverNS }))
	out["realdev.read_image_ms"] = readMS
	out["realdev.read_image_mb_per_s"] = ratio(float64(last.img.FileBytes())/1e6, readMS/1e3)
	out["realdev.slots_skipped"] = float64(last.img.Skipped())
	out["recovery.recover_ms"] = recMS
	out["recovery.recs_per_s"] = ratio(float64(last.res.RecordsRead), recMS/1e3)
	out["recovery.blocks_read"] = float64(last.res.BlocksRead)
	out["recovery.torn_blocks"] = float64(last.res.TornBlocks)
	out["recovery.salvaged_recs"] = float64(last.res.SalvagedRecs)
}

// spanLayers turns a traced run's self times into shares of the goroutine's
// wall time and per-transaction costs.
func spanLayers(out values, kit *traceKit, agg spanTotals, wallNS int64, txs int) {
	wall := float64(wallNS)
	out["workload.self_share"] = float64(agg.self[layGen]) / wall
	out["workload.self_ns_per_tx"] = ratio(float64(agg.self[layGen]), float64(txs))
	out["core.self_share"] = float64(agg.self[layCore]) / wall
	out["core.self_ns_per_tx"] = ratio(float64(agg.self[layCore]), float64(txs))
	out["flushdisk.self_share"] = float64(agg.self[layFlush]) / wall
	out["commit_stage.fill_ms_p50"] = median(kit.stages.fill)
	out["commit_stage.device_ms_p50"] = median(kit.stages.device)
	out["commit_stage.post_ms_p50"] = median(kit.stages.post)
}

// runRecoverScan is recover-scan. Set-up fills a log with the saturation
// driver and crashes it mid-write, cutting the final frame at a 4 KiB
// boundary; the timed phase scans that image over and over.
func runRecoverScan(e env, p realParams) (result, error) {
	res := result{Correct: true, Params: p, Detail: map[string]any{}}
	var (
		setups     []float64
		p50s, p99s []float64 // one per fill: the three fills are three samples of the same load
		dir        string
		fill       *realPass
	)
	defer func() { os.RemoveAll(dir) }()
	for i := 0; i < setupReps; i++ {
		os.RemoveAll(dir) // only the last fill is scanned
		t0 := nowNS()
		var err error
		if dir, err = e.logDir("recover-scan"); err != nil {
			return res, err
		}
		if fill, err = driveReal(e, p, dir, p.FillSeconds, nil, true); err != nil {
			return res, err
		}
		setups = append(setups, seconds(nowNS()-t0))
		p50s, p99s = append(p50s, fill.ls.p50), append(p99s, fill.ls.p99)
	}
	r, cr, ls, c := fill.r, fill.cr, fill.ls, fill.c

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	scans, err := scanRepeatedly(dir, r.db, int64(p.Seconds*1e9))
	if err != nil {
		return res, err
	}
	runtime.ReadMemStats(&m1)
	last := scans[len(scans)-1]
	lost, verr := verifyOracle(last.db, cr.oracle)

	res.Attempted = c.begun + len(scans)
	res.Failed = c.killed + c.unacked + lost
	if cr.lm.EmergencyBlocks > 0 || cr.lm.RefugeeStalls > 0 {
		res.Failed = res.Attempted
		res.fail("log space ran out during the fill: %d emergency blocks, %d refugee stalls", cr.lm.EmergencyBlocks, cr.lm.RefugeeStalls)
	}
	if c.killed > 0 || !fill.timed.drained {
		res.fail("fill: %d killed, %d unacknowledged", c.killed, c.unacked)
	}
	if verr != nil {
		res.fail("oracle: %d objects lost or stale: %v", lost, verr)
	}
	if last.res.TornBlocks == 0 {
		res.fail("the final write was not torn: recovery never took the salvage path")
	}

	total := scanMS(scans, func(s scan) int64 { return s.readNS + s.recoverNS })
	recMS := lowerQuartile(total)
	res.E2E = values{
		// The recovery model charges 15 ms per block read; this is that
		// modelled time over the measured one.
		"sim_speed_x":         ratio(last.res.EstimatedTime.Seconds(), recMS/1e3),
		"search_wall_s":       recMS / 1e3,
		"el_min_blocks":       float64(cr.lm.TotalBlocks),
		"el_log_writes_per_s": per100TPS(cr.lm.TotalBandwidth, fill),
		"commit_tput_per_s":   ratio(float64(last.res.Winners), recMS/1e3),
		"commit_p50_ms":       median(p50s),
		"commit_p99_ms":       median(p99s),
		"write_amp_x":         ratio(float64(cr.dev.Writes)*float64(cr.rs.SlotBytes), float64(cr.lm.AppendedBytes)),
		"recovery_ms":         recMS,
		"alloc_b_per_op":      ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(len(scans)*last.res.RecordsRead)),
		"ok_share":            res.okShare(),
		"setup_s":             median(setups),
	}
	asc := sorted(total)
	res.Detail["recovery_ms_median"], res.Detail["recovery_ms_q3"] = quantile(asc, 0.5), quantile(asc, 0.75)
	res.Detail["scans"] = len(scans)
	res.Detail["setup_s_all"] = setups
	res.Detail["fill_commits"] = c.acked
	res.Detail["records_per_scan"] = last.res.RecordsRead
	res.Detail["winners"] = last.res.Winners

	res.Layers = values{}
	loadLayers(res.Layers, ls)
	crashLayers(res.Layers, cr, c.acked)
	scanLayers(res.Layers, scans)
	return res, nil
}
