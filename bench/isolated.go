package main

import (
	"runtime"
	"sync/atomic"

	"ellog/internal/container"
	"ellog/internal/logrec"
	"ellog/internal/realtime"
	"ellog/internal/sim"
	"ellog/internal/statedb"
)

// The isolated loops price one layer each with nothing else running: a
// fixed operation count, the minimum of isoReps repetitions. Their inputs
// are constants, not the run's seed: they compare the same work across
// commits and hosts.
const isoReps = 5

// timed runs fn once and returns nanoseconds per op.
func timed(ops int, fn func()) float64 {
	t0 := nowNS()
	fn()
	return float64(nowNS()-t0) / float64(ops)
}

// mallocs counts the heap allocations fn makes.
func mallocs(fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs)
}

// isoBlock is a full 2000-byte block as the saturation workload packs it:
// 18 data records of 100 bytes and 25 transaction records of 8.
func isoBlock() []*logrec.Record {
	var recs []*logrec.Record
	lsn := logrec.LSN(0)
	for tx := logrec.TxID(1); tx <= 9; tx++ {
		for j := 0; j < 2; j++ {
			lsn++
			recs = append(recs, logrec.NewDataRecord(lsn, sim.Time(lsn), tx, logrec.OID(lsn*7919), 100))
		}
		lsn++
		recs = append(recs, logrec.NewTxRecord(lsn, sim.Time(lsn), logrec.KindCommit, tx, 8))
	}
	for tx := logrec.TxID(10); tx <= 25; tx++ {
		lsn++
		recs = append(recs, logrec.NewTxRecord(lsn, sim.Time(lsn), logrec.KindBegin, tx, 8))
	}
	return recs
}

var isoSink int

func isoLogrec(out values) {
	recs := isoBlock()
	const blocks = 20_000
	buf := logrec.AppendBlock(nil, recs)
	out["logrec.encode_ns_per_rec"] = minOf(isoReps, func() float64 {
		return timed(blocks*len(recs), func() {
			for i := 0; i < blocks; i++ {
				buf = logrec.AppendBlock(buf[:0], recs)
			}
		})
	})
	out["logrec.encode_allocs"] = mallocs(func() {
		for i := 0; i < blocks; i++ {
			buf = logrec.AppendBlock(buf[:0], recs)
		}
	}) / blocks
	out["logrec.decode_ns_per_rec"] = minOf(isoReps, func() float64 {
		return timed(blocks*len(recs), func() {
			for i := 0; i < blocks; i++ {
				got, err := logrec.DecodeBlock(buf)
				if err != nil {
					panic(err) // the block was encoded two lines up
				}
				isoSink += len(got)
			}
		})
	})
	nsPerBlock := minOf(isoReps, func() float64 {
		return timed(blocks, func() {
			for i := 0; i < blocks; i++ {
				got, _ := logrec.SalvageBlock(buf)
				isoSink += len(got)
			}
		})
	})
	out["logrec.salvage_mb_per_s"] = float64(len(buf)) / 1e6 / (nsPerBlock / 1e9)
}

// isoKeys is the fixed key stream of the container and statedb loops.
func isoKeys(n int) []uint64 {
	rng := sim.NewEngine(20260930, 11).Rand()
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64N(10_000_000)
	}
	return keys
}

// putGetDelete is the mix both containers are priced on: insert every key,
// look every key up, delete every key.
func putGetDelete(keys []uint64, put func(uint64), get func(uint64) bool, del func(uint64)) float64 {
	return minOf(isoReps, func() float64 {
		return timed(3*len(keys), func() {
			for _, k := range keys {
				put(k)
			}
			for _, k := range keys {
				if get(k) {
					isoSink++
				}
			}
			for _, k := range keys {
				del(k)
			}
		})
	})
}

func isoContainer(out values) {
	keys := isoKeys(1 << 16)
	table := container.NewTable[int]()
	out["container.table_ns_per_op"] = putGetDelete(keys,
		func(k uint64) { table.Put(k, 1) },
		func(k uint64) bool { _, ok := table.Get(k); return ok },
		func(k uint64) { table.Delete(k) })
	treap := container.NewTreap[int](1)
	out["container.treap_ns_per_op"] = putGetDelete(keys,
		func(k uint64) { treap.Put(k, 1) },
		func(k uint64) bool { _, ok := treap.Get(k); return ok },
		func(k uint64) { treap.Delete(k) })
}

func isoStatedb(out values) {
	keys := isoKeys(100_000)
	var db *statedb.DB
	out["statedb.apply_ns_per_op"] = minOf(isoReps, func() float64 {
		db = statedb.New()
		return timed(len(keys), func() {
			for i, k := range keys {
				db.Apply(logrec.OID(k), logrec.LSN(i+1), uint64(i), 1)
			}
		})
	})
	out["statedb.clone_ms"] = minOf(isoReps, func() float64 {
		return timed(1, func() { isoSink += db.Clone().Len() }) / 1e6
	})
}

// isoEngine is perf.MeasureEngine's schedule/fire/cancel loop at a fixed
// count, on a warmed arena.
func isoEngine(out values) {
	const ops = 1 << 20
	e := sim.NewEngine(1, 2)
	nop := func() {}
	loop := func() {
		for i := 0; i < ops; i++ {
			e.After(sim.Time(i%97), nop)
			if i%16 == 15 {
				e.Cancel(e.After(200, nop))
			}
			if i%64 == 63 {
				e.Run(e.Now() + 100)
			}
		}
		e.Run(e.Now() + 1000)
	}
	loop()
	out["sim.sched_fire_ns"] = minOf(isoReps, func() float64 { return timed(ops, loop) })
	out["sim.sched_fire_allocs"] = mallocs(loop) / ops
}

// isoPostWake times realtime.Loop's cross-goroutine hand-off: Post from
// this goroutine into a loop sleeping in Run on another, 2000 times, each
// after the previous one has landed.
func isoPostWake(out values) {
	const samples = 2000
	//ellint:allow detflow this loop prices the wall-clock loop's own hand-off
	loop := realtime.New(1)
	var clk sim.Clock = loop
	var stop atomic.Bool
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for !stop.Load() {
			loop.Run(clk.Now() + 20*sim.Millisecond) //ellint:allow detflow as above
		}
	}()
	landed := make(chan int64)
	lat := make([]float64, 0, samples)
	for i := 0; i < samples; i++ {
		t0 := nowNS()
		loop.Post(func() { landed <- nowNS() })
		lat = append(lat, float64(<-landed-t0)/1e3)
	}
	stop.Store(true)
	<-exited
	out["realtime.post_wake_us_p50"] = median(lat)
}

// isolated runs every isolated loop and the host figures beside them.
func isolated() values {
	out := values{}
	out["host.calib_ns"] = calibNS()
	out["host.nproc"] = float64(runtime.GOMAXPROCS(0))
	isoLogrec(out)
	isoContainer(out)
	isoStatedb(out)
	isoEngine(out)
	isoPostWake(out)
	return out
}

// isolatedNS lists the ns-valued isolated metrics, which are also printed
// as multiples of host.calib_ns.
var isolatedNS = []string{
	"logrec.encode_ns_per_rec", "logrec.decode_ns_per_rec",
	"container.table_ns_per_op", "container.treap_ns_per_op",
	"statedb.apply_ns_per_op", "sim.sched_fire_ns",
}
