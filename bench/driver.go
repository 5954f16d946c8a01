package main

import (
	"math/rand/v2"
	"sort"

	"ellog/internal/logrec"
	"ellog/internal/sim"
	"ellog/internal/workload"
)

// The benchmark owns its real-mode load generator. workload.Generator
// schedules each arrival from the Now() it observes, so on a wall clock
// every late wake-up pushes all later arrivals back: offered 400 tx/s
// arrives as ~320. This driver instead fixes every action's due time before
// the run starts (open loop), or runs a fixed set of logical clients that
// each wait for their acknowledgement (closed loop). Clients are state
// machines on the loop goroutine, never threads.

// oidWindow is how many consecutive draws of the object stream are
// guaranteed distinct. It exceeds the records any workload here can have
// outstanding (256 clients × 2, or 60 ms of a 400 tx/s schedule), so no two
// unacknowledged transactions ever update the same object — the paper's
// unique-oid rule — without the driver consulting a table at run time.
const oidWindow = 4096

// genOIDs draws n object ids uniformly from [0, numObjects), rejecting a
// draw equal to any of the previous oidWindow. The stream is consumed
// circularly, so the last window also avoids the first.
func genOIDs(rng *rand.Rand, n int, numObjects uint64) []logrec.OID {
	window := oidWindow
	if n < 2*window {
		window = n / 2
	}
	out := make([]logrec.OID, 0, n)
	recent := make(map[logrec.OID]struct{}, window)
	head := make(map[logrec.OID]struct{}, window)
	for len(out) < n {
		oid := logrec.OID(rng.Uint64N(numObjects))
		if _, dup := recent[oid]; dup {
			continue
		}
		if len(out) >= n-window {
			if _, dup := head[oid]; dup {
				continue
			}
		}
		if len(out) < window {
			head[oid] = struct{}{}
		}
		if len(out) >= window {
			delete(recent, out[len(out)-window])
		}
		recent[oid] = struct{}{}
		out = append(out, oid)
	}
	return out
}

// txType is one class of the paced mix.
type txType struct {
	Name       string   `json:"name"`
	Prob       float64  `json:"prob"`
	Lifetime   sim.Time `json:"lifetime_us"`
	NumRecords int      `json:"records"`
	RecordSize int      `json:"record_bytes"`
}

type txState uint8

const (
	txIdle txState = iota
	txBegun
	txCommitIssued
	txAcked
	txKilled
)

// txRec is the driver's record of one transaction: which slice of the draw
// sequence it wrote and how far it got.
type txRec struct {
	first uint32 // index of its first draw in the global draw sequence
	n     uint8  // records it writes
	done  uint8  // records written so far
	size  uint16 // bytes per record
	state txState
}

type actionKind uint8

const (
	actBegin actionKind = iota
	actRecord
	actCommit
)

// action is one step of the paced schedule, due at an absolute time.
type action struct {
	due  sim.Time
	tx   int32
	kind actionKind
}

// driver generates load against a LogManager on any sim.Source. Exactly one
// of the two modes is armed: paced (actions non-empty) or closed loop.
type driver struct {
	clk     sim.Source
	lm      workload.LogManager
	base    sim.Time // clock reading at start; every due time is relative to it
	horizon sim.Time // no transaction begins at or after base+horizon

	oids []logrec.OID // object stream, consumed circularly
	lsns []logrec.LSN // LSN each draw was logged at, in draw order; 0 if it never was
	txs  []txRec

	// paced
	actions []action
	next    int

	// closed loop
	ready     []int32 // clients whose acknowledgement arrived, waiting for the pump
	spare     []int32
	recsPerTx int
	recSize   int
	pumpArmed bool

	outstanding int // commits issued and not yet acknowledged or killed

	// Samples. Times are microseconds on the driver's clock, since base.
	ackAt, latUS []float64 // per acknowledged commit: when, and due/call→ack
	lateUS       []float64 // per paced action: fired − due
}

// newPacedDriver fixes the whole schedule up front: transaction i begins at
// i/rate, writes its records at equal steps ending epsilon before its
// lifetime, and commits at begin+lifetime — workload.Generator's shape, at
// absolute due times. Types and objects are drawn from rng here, so the
// manager receives the same inputs for the same seed whatever the timing.
func newPacedDriver(clk sim.Source, lm workload.LogManager, rng *rand.Rand, mix []txType, rate float64, horizon sim.Time, numObjects uint64) *driver {
	d := &driver{clk: clk, lm: lm, horizon: horizon}
	interval := sim.Time(float64(sim.Second) / rate)
	total := 0
	for begin := sim.Time(0); begin < horizon; begin += interval {
		typ := &mix[len(mix)-1]
		r, acc := rng.Float64(), 0.0
		for i := range mix {
			if acc += mix[i].Prob; r < acc {
				typ = &mix[i]
				break
			}
		}
		tx := int32(len(d.txs))
		d.txs = append(d.txs, txRec{first: uint32(total), n: uint8(typ.NumRecords), size: uint16(typ.RecordSize)})
		total += typ.NumRecords
		d.actions = append(d.actions, action{due: begin, tx: tx, kind: actBegin})
		step := (typ.Lifetime - workload.DefaultEpsilon) / sim.Time(typ.NumRecords)
		for j := 1; j <= typ.NumRecords; j++ {
			d.actions = append(d.actions, action{due: begin + sim.Time(j)*step, tx: tx, kind: actRecord})
		}
		d.actions = append(d.actions, action{due: begin + typ.Lifetime, tx: tx, kind: actCommit})
	}
	sort.SliceStable(d.actions, func(i, j int) bool { return d.actions[i].due < d.actions[j].due })
	d.oids = genOIDs(rng, total, numObjects)
	d.lsns = make([]logrec.LSN, total)
	lm.SetKillHandler(d.onKill)
	return d
}

// newClosedDriver arms clients logical clients, each running BEGIN,
// recsPerTx WriteData, COMMIT, wait for the acknowledgement, next — no think
// time. streamLen object draws are fixed up front and consumed circularly.
func newClosedDriver(clk sim.Source, lm workload.LogManager, rng *rand.Rand, clients, recsPerTx, recSize int, horizon sim.Time, numObjects uint64, streamLen int) *driver {
	d := &driver{
		clk: clk, lm: lm, horizon: horizon,
		oids:      genOIDs(rng, streamLen, numObjects),
		recsPerTx: recsPerTx,
		recSize:   recSize,
	}
	for c := 0; c < clients; c++ {
		d.ready = append(d.ready, int32(c))
	}
	lm.SetKillHandler(d.onKill)
	return d
}

// start schedules the first step and returns the clock reading the
// schedule counts from; the caller then drives the clock to base+horizon.
func (d *driver) start() sim.Time {
	d.base = d.clk.Now()
	if len(d.actions) > 0 {
		d.clk.At(d.base+d.actions[0].due, d.fire)
	} else {
		d.armPump()
	}
	return d.base
}

// idle reports whether the driver has nothing left to issue and nothing
// left to wait for.
func (d *driver) idle() bool {
	return d.next == len(d.actions) && d.outstanding == 0 && !d.pumpArmed
}

// fire runs every paced action that is due and re-arms for the next one at
// its absolute due time, so lateness never accumulates.
func (d *driver) fire() {
	for d.next < len(d.actions) {
		a := d.actions[d.next]
		now := d.clk.Now() - d.base
		if a.due > now {
			d.clk.At(d.base+a.due, d.fire)
			return
		}
		d.next++
		d.lateUS = append(d.lateUS, float64(now-a.due))
		d.run(a)
	}
}

func (d *driver) run(a action) {
	tx := &d.txs[a.tx]
	tid := logrec.TxID(a.tx + 1)
	switch a.kind {
	case actBegin:
		tx.state = txBegun
		d.lm.BeginHinted(tid, 0)
	case actRecord:
		if tx.state == txBegun {
			d.write(a.tx)
		}
	case actCommit:
		if tx.state == txBegun {
			d.commit(a.tx, a.due, nil)
		}
	}
}

// write logs the transaction's next record: the next draw of the slice of
// the object stream it was assigned when it was created.
func (d *driver) write(tx int32) {
	t := &d.txs[tx]
	k := t.first + uint32(t.done)
	t.done++
	lsn := d.lm.WriteData(logrec.TxID(tx+1), d.oids[int(k)%len(d.oids)], int(t.size))
	if t.state == txBegun { // the write itself may have killed the transaction
		d.lsns[k] = lsn
	}
}

// commit issues COMMIT for transaction tx, timing the acknowledgement from
// since: the COMMIT's due time when paced, the call when closed loop.
func (d *driver) commit(tx int32, since sim.Time, then func()) {
	d.txs[tx].state = txCommitIssued
	d.outstanding++
	d.lm.Commit(logrec.TxID(tx+1), func() {
		now := d.clk.Now() - d.base
		d.txs[tx].state = txAcked
		d.outstanding--
		d.ackAt = append(d.ackAt, float64(now))
		d.latUS = append(d.latUS, float64(now-since))
		if then != nil {
			then()
		}
	})
}

func (d *driver) onKill(tid logrec.TxID) {
	tx := &d.txs[tid-1]
	if tx.state == txCommitIssued {
		d.outstanding--
	}
	tx.state = txKilled
}

// armPump schedules one pump for this instant. Acknowledgements arrive
// inside the manager's block-completion handler; starting the client's next
// transaction from there would re-enter the manager mid-completion, so the
// client is queued and the pump runs from its own event.
func (d *driver) armPump() {
	if !d.pumpArmed {
		d.pumpArmed = true
		d.clk.After(0, d.pump)
	}
}

func (d *driver) pump() {
	d.pumpArmed = false
	ready := d.ready
	d.ready = d.spare[:0]
	for _, c := range ready {
		if d.clk.Now()-d.base >= d.horizon {
			break // the client retires: the run is stopping
		}
		d.runClient(c)
	}
	d.spare = ready
}

func (d *driver) runClient(c int32) {
	tx := int32(len(d.txs))
	d.txs = append(d.txs, txRec{first: uint32(len(d.lsns)), n: uint8(d.recsPerTx), size: uint16(d.recSize), state: txBegun})
	for j := 0; j < d.recsPerTx; j++ {
		d.lsns = append(d.lsns, 0)
	}
	d.lm.BeginHinted(logrec.TxID(tx+1), 0)
	for j := 0; j < d.recsPerTx && d.txs[tx].state == txBegun; j++ {
		d.write(tx)
	}
	if d.txs[tx].state != txBegun {
		d.ready = append(d.ready, c) // killed mid-transaction: the client starts over
		d.armPump()
		return
	}
	d.commit(tx, d.clk.Now()-d.base, func() {
		d.ready = append(d.ready, c)
		d.armPump()
	})
}

// driverCounts summarizes how far the transactions got.
type driverCounts struct {
	begun, acked, killed, unacked int
}

func (d *driver) counts() driverCounts {
	var c driverCounts
	for i := range d.txs {
		switch d.txs[i].state {
		case txIdle:
			continue
		case txAcked:
			c.acked++
		case txKilled:
			c.killed++
		case txCommitIssued:
			c.unacked++
		}
		c.begun++
	}
	return c
}

// oracle is the ground truth recovery is checked against: the newest LSN
// per object among acknowledged commits. Objects are unique among
// outstanding transactions, so a later writer of an object always carries a
// larger LSN than an earlier acknowledged one.
func (d *driver) oracle() map[logrec.OID]logrec.LSN {
	out := make(map[logrec.OID]logrec.LSN)
	for i := range d.txs {
		tx := &d.txs[i]
		if tx.state != txAcked {
			continue
		}
		for k := tx.first; k < tx.first+uint32(tx.n); k++ {
			oid := d.oids[int(k)%len(d.oids)]
			if d.lsns[k] > out[oid] {
				out[oid] = d.lsns[k]
			}
		}
	}
	return out
}

// loadStats is what the load generator saw inside the timed window.
type loadStats struct {
	acked         int     // commits acknowledged by the horizon
	tput          float64 // acked ÷ horizon seconds
	p50, p99      float64 // ms; p99 is the median of 5 per-window p99s
	sloMissShare  float64 // share of those commits slower than sloMS
	lateP99       float64 // µs, paced actions only
	offeredPerSec float64 // transactions begun ÷ horizon seconds
}

func (d *driver) loadStats() loadStats {
	var at, lat []float64
	miss := 0
	for i, t := range d.ackAt {
		if t > float64(d.horizon) {
			continue
		}
		ms := d.latUS[i] / 1e3
		at = append(at, t)
		lat = append(lat, ms)
		if ms > sloMS {
			miss++
		}
	}
	secs := d.horizon.Seconds()
	return loadStats{
		acked:         len(lat),
		tput:          float64(len(lat)) / secs,
		p50:           median(lat),
		p99:           windowedP99(at, lat, float64(d.horizon), 5),
		sloMissShare:  ratio(float64(miss), float64(len(lat))),
		lateP99:       quantile(sorted(d.lateUS), 0.99),
		offeredPerSec: float64(d.counts().begun) / secs,
	}
}
