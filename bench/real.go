package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"ellog/internal/blockdev"
	"ellog/internal/config"
	"ellog/internal/core"
	"ellog/internal/flushdisk"
	"ellog/internal/logrec"
	"ellog/internal/realdev"
	"ellog/internal/realtime"
	"ellog/internal/recovery"
	"ellog/internal/sim"
	"ellog/internal/statedb"
	"ellog/internal/workload"
)

// realParams pins everything a real-backend workload runs with. It is
// written to the result file; compare refuses two runs whose params differ.
type realParams struct {
	Gens               []int    `json:"gens"`
	Recirculate        bool     `json:"recirculate"`
	ThresholdK         int      `json:"threshold_k,omitempty"` // 0: core's default of 2
	GroupCommitTimeout sim.Time `json:"group_commit_timeout_us"`
	FlushDrives        int      `json:"flush_drives"`
	FlushTransfer      sim.Time `json:"flush_transfer_us"`
	NumObjects         uint64   `json:"objects"`
	// Direct and the device's group-commit options are left at what
	// realdev ships: DirectAuto, GroupDelay 2 ms, GroupBytes 256 KiB,
	// Pipeline 2. The flush policy is realdev's only one: one fsync per
	// dispatched batch.
	Direct realdev.DirectMode `json:"direct"`

	Loop      string   `json:"loop"` // "open" or "closed"
	Rate      float64  `json:"rate_per_s,omitempty"`
	Mix       []txType `json:"mix,omitempty"`
	Clients   int      `json:"clients,omitempty"`
	RecsPerTx int      `json:"records_per_tx,omitempty"`
	RecBytes  int      `json:"record_bytes,omitempty"`
	StreamLen int      `json:"object_stream_len,omitempty"`

	Seconds     float64 `json:"seconds"`
	WarmSeconds float64 `json:"warm_seconds"`
	// FillSeconds, on recover-scan, is how long the closed-loop driver
	// fills the log before the crash; Seconds then bounds the timed scans.
	FillSeconds float64 `json:"fill_seconds,omitempty"`
}

// drainGrace bounds the post-horizon wait for acknowledgements.
const drainGrace = 2 * sim.Second

// lateLimitUS is how late (p99) the paced driver may run its actions before
// the run's latencies are marked unresolved. The wall-clock loop sleeps on Go
// timers, which on Linux wake up to a millisecond late (the runtime's netpoll
// sleep rounds up to whole milliseconds): lateness is uniform over 0–1.07 ms
// on this host, so a 1 ms limit would flag every run. Twice that flags a
// loop that has actually fallen behind.
const lateLimitUS = 2000

// sloMS is the commit-latency objective driver.slo_miss_share reports
// against. Missing it is not a failure: fsync noise must not move ok_share.
const sloMS = 20.0

// pacedParams is real-paced: the latency-bound regime. Open loop, elreal's
// -compressed mix at 400 tx/s, the shipped default configuration
// (config.Default: two generations, no recirculation, 10 flush drives ×
// 25 ms) with GroupCommitTimeout 5 ms — but four times the shipped log and a
// free-block gap of 8 instead of 2. The shipped 18+16 blocks with k=2 is the
// paper's minimum for a 15 ms device at 100 TPS, where a block fills in
// 100 ms. Here a block seals every ~6 ms and a write is in flight ~2.5 ms:
// the tail reclaims a slot two seals after the head forwarded its records,
// and when two seals land inside one forward write's flight the slot still
// holds the only durable copy — a refugee stall, which fails the run. With
// k=2 that happened in about one traced run in three (at 18+16 and at
// 72+64 alike). The larger log is for the other cause seen: a single
// fsync stalling for 100 ms, which is one wrap of an 18-block generation 0.
// Commit latency is set by the timers and moves little (p50 6.3 → 6.9 ms).
func pacedParams(seconds float64) (realParams, error) {
	hc, err := config.Default().ToHarness()
	if err != nil {
		return realParams{}, err
	}
	gens := make([]int, len(hc.LM.GenSizes))
	for i, g := range hc.LM.GenSizes {
		gens[i] = 4 * g
	}
	return realParams{
		Gens:               gens,
		ThresholdK:         8,
		Recirculate:        hc.LM.Recirculate,
		GroupCommitTimeout: 5 * sim.Millisecond,
		FlushDrives:        hc.Flush.Drives,
		FlushTransfer:      hc.Flush.Transfer,
		NumObjects:         10_000,
		Direct:             realdev.DirectAuto,
		Loop:               "open",
		Rate:               400,
		Mix: []txType{
			{Name: "short-10ms", Prob: 0.8, Lifetime: 10 * sim.Millisecond, NumRecords: 2, RecordSize: 100},
			{Name: "long-50ms", Prob: 0.2, Lifetime: 50 * sim.Millisecond, NumRecords: 4, RecordSize: 100},
		},
		Seconds:     seconds,
		WarmSeconds: warmFor(seconds),
	}, nil
}

// saturateParams is real-saturate: the throughput-bound regime. 256 logical
// clients, no think time, a log big enough that space never limits, and a
// flush array sized out of the way (64 drives × 20 µs = 3.2 M flushes/s) —
// stated, and checked after the run.
func saturateParams(e env) realParams {
	p := realParams{
		Gens:               []int{2048, 512},
		Recirculate:        true,
		GroupCommitTimeout: 5 * sim.Millisecond,
		FlushDrives:        64,
		FlushTransfer:      20 * sim.Microsecond,
		NumObjects:         1_000_000,
		Direct:             realdev.DirectAuto,
		Loop:               "closed",
		Clients:            256,
		RecsPerTx:          2,
		RecBytes:           100,
		StreamLen:          1 << 20,
		Seconds:            e.seconds,
		WarmSeconds:        warmFor(e.seconds),
	}
	if e.tiny {
		p.StreamLen = 1 << 14
	}
	return p
}

// scanParams is recover-scan: the saturate driver over 102 400 objects
// (100 000 rounded up to a multiple of the 64 flush drives) fills the log,
// then the image is scanned repeatedly.
func scanParams(e env) realParams {
	p := saturateParams(e)
	p.NumObjects = 102_400
	p.WarmSeconds = 0
	p.FillSeconds = 2
	if e.seconds < 3 {
		p.FillSeconds = e.seconds / 2
	}
	return p
}

// warmFor is the untimed warm-up run each set-up repetition makes: long
// enough that the file, the syncer and the allocator are past first use.
func warmFor(seconds float64) float64 {
	if seconds < 2.5 {
		return seconds / 5
	}
	return 0.5
}

// realRun is one assembled real-backend run: realtime.New + realdev.Open +
// flushdisk.New + core.New, the benchmark's driver on top. With a traceKit
// every seam is decorated; without one the components are wired directly.
type realRun struct {
	p    realParams
	dir  string
	loop *realtime.Loop
	dev  *realdev.Device
	db   *statedb.DB
	lm   *core.Manager
	drv  *driver
	kit  *traceKit
	slot int
}

func buildReal(p realParams, dir string, seed uint64, horizon sim.Time, kit *traceKit) (*realRun, error) {
	lp := core.Params{
		Mode:               core.ModeEphemeral,
		GenSizes:           p.Gens,
		Recirculate:        p.Recirculate,
		ThresholdK:         p.ThresholdK,
		GroupCommitTimeout: p.GroupCommitTimeout,
	}.WithDefaults()
	slot := realdev.SlotFor(lp.BlockPayload, lp.TxRecSize)
	//ellint:allow detflow the real workloads measure the wall-clock backend by design
	loop := realtime.New(seed)
	//ellint:allow detflow the real workloads measure the wall-clock backend by design
	dev, err := realdev.Open(loop, dir, realdev.Options{SlotBytes: slot, Direct: p.Direct})
	if err != nil {
		return nil, err
	}
	r := &realRun{p: p, dir: dir, loop: loop, dev: dev, db: statedb.New(), kit: kit, slot: slot}

	var genClk sim.Source = loop
	var coreClk, flushClk sim.Clock = loop, loop
	var logDev core.LogDevice = dev
	onFlush := func(req flushdisk.Request) { r.lm.Flushed(req) }
	if kit != nil {
		genClk = kit.clock(loop, layGen, spGenTimer, false)
		coreClk = kit.clock(loop, layCore, spCoreTimer, true)
		flushClk = kit.clock(loop, layFlush, spFlushTimer, true)
		logDev = &tracedDev{dev: dev, kit: kit}
		onFlush = kit.flushed(onFlush)
	}
	flush := flushdisk.New(flushClk, p.FlushDrives, p.FlushTransfer, p.NumObjects, onFlush)
	r.lm, err = core.New(coreClk, lp, logDev, flush, r.db)
	if err != nil {
		_ = dev.Abandon() // nothing was written; only the file handle needs releasing
		return nil, err
	}
	var lm workload.LogManager = r.lm
	if kit != nil {
		lm = &tracedLM{lm: r.lm, kit: kit}
	}
	if p.Loop == "open" {
		r.drv = newPacedDriver(genClk, lm, loop.Rand(), p.Mix, p.Rate, horizon, p.NumObjects)
	} else {
		r.drv = newClosedDriver(genClk, lm, loop.Rand(), p.Clients, p.RecsPerTx, p.RecBytes, horizon, p.NumObjects, p.StreamLen)
	}
	return r, nil
}

// realTimed is what the timed phase of a real run measured.
type realTimed struct {
	wallNS     int64
	allocBytes uint64
	agg        spanTotals // tracer totals at the horizon (zero when untraced)
	drained    bool
}

// run drives the loop to the horizon, then — untimed — lets in-flight
// transactions finish their schedule and drains acknowledgements for up to
// drainGrace. It never calls Device.Close or Loop.Step: that path is the
// known "Write after Close" shutdown race, and every real run here ends in
// crash instead.
func (r *realRun) run(horizon sim.Time) realTimed {
	var m0, m1 runtime.MemStats
	var clk sim.Clock = r.loop // read through the seam: this is the driver's own clock
	base := r.drv.start()
	runtime.ReadMemStats(&m0)
	t0 := nowNS()
	r.loop.Run(base + horizon) //ellint:allow detflow the real workloads measure the wall-clock backend by design
	out := realTimed{wallNS: nowNS() - t0}
	runtime.ReadMemStats(&m1)
	out.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if r.kit != nil {
		out.agg = r.kit.t.spanTotals
	}
	deadline := clk.Now() + drainGrace
	if n := len(r.drv.actions); n > 0 && r.drv.actions[n-1].due > horizon {
		deadline += r.drv.actions[n-1].due - horizon // the schedule's own tail
	}
	for now := clk.Now(); !r.drv.idle() && now < deadline; now = clk.Now() {
		r.loop.Run(now + sim.Millisecond) //ellint:allow detflow draining acknowledgements on the wall-clock loop
	}
	out.drained = r.drv.idle()
	return out
}

// crashed is the state a run leaves behind once its device is abandoned.
type crashed struct {
	lm     core.Stats
	dev    blockdev.Stats
	rs     realdev.RealStats
	oracle map[logrec.OID]logrec.LSN
}

// crash abandons the device — pending batch dropped, dispatched batches
// finish, no completion runs — and collects the statistics.
func (r *realRun) crash() (crashed, error) {
	if err := r.dev.Abandon(); err != nil {
		return crashed{}, fmt.Errorf("abandoning %s: %w", r.dir, err)
	}
	return crashed{lm: r.lm.Stats(), dev: r.dev.Stats(), rs: r.dev.RealStats(), oracle: r.drv.oracle()}, nil
}

// scan is one timed ReadImage + Recover of a crashed log directory.
type scan struct {
	readNS, recoverNS int64
	img               *realdev.FileImage
	db                *statedb.DB
	res               recovery.Result
}

func scanOnce(dir string, db *statedb.DB) (scan, error) {
	t0 := nowNS()
	img, err := realdev.ReadImage(dir)
	if err != nil {
		return scan{}, err
	}
	t1 := nowNS()
	rec, res, err := recovery.Recover(img, db, 0)
	if err != nil {
		return scan{}, err
	}
	return scan{readNS: t1 - t0, recoverNS: nowNS() - t1, img: img, db: rec, res: res}, nil
}

// verifyOracle counts oracle objects that recovery lost or left stale, then
// asks recovery.VerifyOracle for the strict two-way verdict (which also
// catches state that was never acknowledged). A strict failure with no
// lost object still counts as one.
func verifyOracle(recovered *statedb.DB, oracle map[logrec.OID]logrec.LSN) (bad int, err error) {
	for oid, lsn := range oracle {
		if v, ok := recovered.Get(oid); !ok || v.LSN < lsn {
			bad++
		}
	}
	err = recovery.VerifyOracle(recovered, oracle)
	if err != nil && bad == 0 {
		bad = 1
	}
	return bad, err
}

// tearFinalWrite makes the crash image end in a torn write, the way a power
// cut during the last block write would. Every commit has been acknowledged
// by now, so no acknowledged state may be torn; instead one more block is
// put in flight that no commit depends on — transactions that only BEGIN,
// enough to fill a block so the manager writes it — and dispatched to the
// syncer without its completion ever running. After the crash the caller
// cuts that slot at its first 4 KiB boundary. The block's 251 eight-byte
// records encode to ~16 KiB, so the cut keeps a prefix of them: recovery must
// take the salvage path and still match the oracle exactly.
//
// It returns the slots written but never acknowledged: the only ones a
// crash may tear.
func (r *realRun) tearFinalWrite() []blockdev.BlockID {
	lp := r.lm.Params()
	next := logrec.TxID(len(r.drv.txs))
	for i := 0; i <= lp.BlockPayload/lp.TxRecSize; i++ {
		next++
		r.lm.Begin(next)
	}
	torn := r.dev.PendingSlots()
	r.dev.Seal()
	return torn
}

// cutSlots zeroes each slot of the crashed log from its first 4 KiB
// boundary on: the first sector of the write landed, the rest did not.
func cutSlots(dir string, slotBytes int, slots []blockdev.BlockID) error {
	const cut = 4096
	f, err := os.OpenFile(filepath.Join(dir, "log.dat"), os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	zeros := make([]byte, slotBytes-cut)
	for _, id := range slots {
		if _, err := f.WriteAt(zeros, int64(id-1)*int64(slotBytes)+cut); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
