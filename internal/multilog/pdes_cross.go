// Cross-shard 2PC over cross-LP messages: the system's one cross-shard
// protocol.
//
// The shards are logical processes that may not touch each other's state,
// so the protocol is what it is on real hardware: messages. Every step
// travels as an LP.Send carrying the engine's lookahead as its delay, and
// each handler touches only the receiving LP's components:
//
//	home LP                                  remote LP
//	-------                                  ---------
//	BEGIN + local write
//	  |--- open ---------------------------> BEGIN + remote write
//	  |--- prepare (at t0+lifetime) -------> LM.Prepare
//	  |                                        (PREPARE durable)
//	  |<-- vote ----------------------------------|
//	LM.DecideCommit(pins=1)
//	  (DECIDE durable => globally committed)
//	  |--- resolve -------------------------> LM.ResolveCommit
//	  |                                        (branch retired)
//	  |<-- unpin ---------------------------------|
//	LM.Unpin => DECIDE record free to retire
//
// Space-pressure kills turn into abort messages: a killed home branch
// sends abortBranch (remote resolves presumed-abort), a killed remote
// branch sends peerAborted (home aborts its half). Messages crossing an
// abort find no transaction entry and are dropped — the same
// presumed-abort indifference the recovery path relies on. Prepared
// branches are unkillable (core), so a vote always finds its home branch
// either alive or already counted aborted, never half-decided.
//
// For the recovery oracle each arm also keeps, LP-locally, what the
// workload generator keeps for its own transactions: every branch's data
// write (oid and LSN) and the homed transactions that were acknowledged.
// PDESLive.Oracle joins them once the run has stopped.
package multilog

import (
	"fmt"

	"ellog/internal/core"
	"ellog/internal/logrec"
	"ellog/internal/metrics"
	"ellog/internal/sim"
	"ellog/internal/workload"
)

// crossOut is the home (coordinator) half of one overlay transaction.
type crossOut struct {
	remote int
	began  sim.Time
	opened bool // open message sent; a kill must chase it with an abort
	killed bool
}

// crossIn is the remote (participant) half.
type crossIn struct {
	home   int
	killed bool
}

// branchWrite is the one data record an overlay branch logged.
type branchWrite struct {
	oid logrec.OID
	lsn logrec.LSN
}

// crossArm is one LP's end of the overlay: initiator for transactions
// homed here, participant for branches opened by peers. All state is
// LP-local; peers are reached only through LP.Send closures that run on
// the destination LP.
type crossArm struct {
	lp    *sim.LP
	lm    *core.Manager
	self  int
	n     int
	d     sim.Time // message latency == engine lookahead
	peers []*crossArm

	mix      workload.Mix
	interval sim.Time
	runtime  sim.Time
	hints    bool

	// Object reserve: local-coordinate range [base, base+reserve) carved
	// out of the generator's draw space. held enforces the paper's
	// unique-active-writer rule within the reserve.
	base    uint64
	reserve uint64
	held    map[logrec.OID]logrec.TxID

	nextTid uint64
	out     map[logrec.TxID]*crossOut
	in      map[logrec.TxID]*crossIn

	// Oracle ledger, never pruned: each branch's write on this LP (home or
	// remote — an LP holds at most one branch of a transaction), and each
	// homed transaction whose DECIDE became durable, with its remote shard.
	wrote   map[logrec.TxID]branchWrite
	decided map[logrec.TxID]int

	started, committed, aborted metrics.Counter
	e2e                         metrics.Histogram
}

// newCrossArm builds one LP's overlay arm. The peers slice is wired by
// BuildPDES once every arm exists.
func newCrossArm(lp *sim.LP, lm *core.Manager, self, n int, lookahead sim.Time, cfg *PDESConfig, base, reserve uint64) *crossArm {
	rate := cfg.Workload.ArrivalRate * cfg.CrossFrac
	return &crossArm{
		lp:       lp,
		lm:       lm,
		self:     self,
		n:        n,
		d:        lookahead,
		mix:      cfg.Workload.Mix,
		interval: sim.Time(float64(sim.Second) / rate),
		runtime:  cfg.Workload.Runtime,
		hints:    cfg.Workload.Hints,
		base:     base,
		reserve:  reserve,
		held:     make(map[logrec.OID]logrec.TxID),
		out:      make(map[logrec.TxID]*crossOut),
		in:       make(map[logrec.TxID]*crossIn),
		wrote:    make(map[logrec.TxID]branchWrite),
		decided:  make(map[logrec.TxID]int),
	}
}

// start schedules the arrival chain, phase-shifted half an interval so
// overlay arrivals interleave with (rather than pile onto) the local
// generator's regular arrivals.
func (a *crossArm) start() {
	a.lp.At(a.interval/2, a.arrival)
}

func (a *crossArm) arrival() {
	now := a.lp.Now()
	if now >= a.runtime {
		return
	}
	a.initiate()
	a.lp.At(now+a.interval, a.arrival)
}

// pickType draws a transaction type from the mix, exactly like the
// generator does, off this LP's own RNG stream.
func (a *crossArm) pickType() *workload.TxType {
	r := a.lp.Rand().Float64()
	acc := 0.0
	for i := range a.mix {
		acc += a.mix[i].Prob
		if r < acc {
			return &a.mix[i]
		}
	}
	return &a.mix[len(a.mix)-1]
}

// initiate starts one cross-shard transaction homed here: one data record
// on the home branch, one on a uniformly drawn remote peer, lifetime and
// record size from the mix. The overlay models the 2PC control path with
// this minimal two-branch write set; the full paper mix runs on the local
// generators.
func (a *crossArm) initiate() {
	typ := a.pickType()
	a.nextTid++
	tid := pdesCrossTid(a.self, a.nextTid)
	remote := int(a.lp.Rand().Uint64N(uint64(a.n - 1)))
	if remote >= a.self {
		remote++
	}
	tx := &crossOut{remote: remote, began: a.lp.Now()}
	a.out[tid] = tx
	a.started.Inc()

	hint := sim.Time(0)
	if a.hints {
		hint = typ.Lifetime
	}
	// Any of the LM calls below can cascade into a space kill of this very
	// transaction (dispatched synchronously through the sink demux), hence
	// the killed re-checks.
	a.lm.BeginHinted(tid, hint)
	if tx.killed || !a.write(tid, typ.RecordSize, &tx.killed) {
		return
	}
	tx.opened = true
	r := a.peers[remote]
	home, size := a.self, typ.RecordSize
	a.lp.Send(remote, a.d, func() { r.open(home, tid, size) })
	a.lp.After(typ.Lifetime, func() { a.beginCommit(tid) })
}

// open runs on the remote LP: begin the participant branch and write its
// record.
func (a *crossArm) open(home int, tid logrec.TxID, size int) {
	if _, dup := a.in[tid]; dup {
		panic(fmt.Sprintf("multilog: duplicate cross-shard open of %d on shard %d", tid, a.self))
	}
	br := &crossIn{home: home}
	a.in[tid] = br
	a.lm.BeginHinted(tid, 0)
	if !br.killed {
		a.write(tid, size, &br.killed)
	}
}

// write logs the branch's one data record on an object drawn from the
// reserve and enters it in the oracle ledger. It reports false when the
// append's space cascade killed the branch; the hold is then dropped, as
// the generator drops a killed write's. A saturated reserve skips the
// write (the branch still carries its BEGIN record) instead of spinning on
// the rejection loop.
func (a *crossArm) write(tid logrec.TxID, size int, killed *bool) bool {
	if uint64(len(a.held)) >= a.reserve {
		return true
	}
	oid := a.draw(tid)
	lsn := a.lm.WriteData(tid, oid, size)
	if *killed {
		a.release(oid, tid)
		return false
	}
	a.wrote[tid] = branchWrite{oid, lsn}
	return true
}

// beginCommit fires on the home LP at t0+lifetime: ask the participant to
// prepare.
func (a *crossArm) beginCommit(tid logrec.TxID) {
	tx := a.out[tid]
	if tx == nil || tx.killed {
		return
	}
	r := a.peers[tx.remote]
	home := a.self
	a.lp.Send(tx.remote, a.d, func() { r.prepare(home, tid) })
}

// prepare runs on the remote LP: append the PREPARE record; once durable,
// vote commit back to the coordinator. A branch that died before the
// request arrives is simply gone — the home shard has already been told.
func (a *crossArm) prepare(home int, tid logrec.TxID) {
	br := a.in[tid]
	if br == nil || br.killed {
		return
	}
	h := a.peers[home]
	a.lm.Prepare(tid, func() {
		if br.killed {
			return
		}
		a.lp.Send(home, a.d, func() { h.vote(tid) })
	})
}

// vote runs on the home LP: the participant's PREPARE is durable, so log
// the DECIDE — at once the coordinator's own commit and the global
// decision — pinned until the participant retires.
func (a *crossArm) vote(tid logrec.TxID) {
	tx := a.out[tid]
	if tx == nil || tx.killed {
		return
	}
	a.lm.DecideCommit(tid, 1, func() { a.decide(tid) })
}

// decide runs on the home LP when the DECIDE record is durable: the
// transaction is globally committed (the overlay's t4) and acknowledged.
// Tell the participant to resolve its in-doubt branch.
func (a *crossArm) decide(tid logrec.TxID) {
	tx := a.out[tid]
	if _, done := a.decided[tid]; tx == nil || done {
		return
	}
	a.decided[tid] = tx.remote
	a.committed.Inc()
	a.e2e.Observe((a.lp.Now() - tx.began).Seconds())
	a.release(a.wrote[tid].oid, tid)
	r := a.peers[tx.remote]
	home := a.self
	a.lp.Send(tx.remote, a.d, func() { r.resolve(home, tid) })
}

// resolve runs on the remote LP: apply the commit decision to the prepared
// branch; when every branch update has flushed the branch retires and the
// coordinator's DECIDE pin is released.
func (a *crossArm) resolve(home int, tid logrec.TxID) {
	if a.in[tid] == nil {
		return // branch aborted under a crossing decision: cannot happen for commit, but stay indifferent
	}
	h := a.peers[home]
	a.lm.ResolveCommit(tid, func() {
		a.lp.Send(home, a.d, func() { h.unpin(tid) })
	})
	a.release(a.wrote[tid].oid, tid)
	delete(a.in, tid)
}

// unpin runs on the home LP: the participant branch has fully retired, so
// the DECIDE record no longer needs to be findable and may itself retire.
func (a *crossArm) unpin(tid logrec.TxID) {
	if tx := a.out[tid]; tx != nil {
		a.lm.Unpin(tid)
		delete(a.out, tid)
	}
}

// abortBranch runs on the remote LP after the home branch was killed:
// presumed abort for the participant, whatever phase it reached (core
// accepts active, preparing and prepared branches).
func (a *crossArm) abortBranch(tid logrec.TxID) {
	br := a.in[tid]
	if br == nil {
		return // branch already died locally; both sides are settled
	}
	br.killed = true
	a.lm.ResolveAbort(tid)
	a.release(a.wrote[tid].oid, tid)
	delete(a.in, tid)
}

// peerAborted runs on the home LP after the remote branch was killed: the
// transaction cannot commit, abort the home half. The home branch is
// necessarily still active — a vote (the only path toward DecideCommit)
// requires a durable remote PREPARE, and prepared branches cannot be
// killed.
func (a *crossArm) peerAborted(tid logrec.TxID) {
	tx := a.out[tid]
	if tx == nil || tx.killed {
		return
	}
	tx.killed = true
	a.aborted.Inc()
	a.lm.ResolveAbort(tid)
	a.release(a.wrote[tid].oid, tid)
	delete(a.out, tid)
}

// killed handles a space-pressure kill of an overlay transaction on this
// LP, routed here by the sink demux. Core fires it synchronously from
// inside whatever LM call provoked the space cascade.
func (a *crossArm) killed(tid logrec.TxID) {
	if tx, ok := a.out[tid]; ok { // home branch killed
		tx.killed = true
		a.aborted.Inc()
		a.release(a.wrote[tid].oid, tid)
		if tx.opened {
			r := a.peers[tx.remote]
			a.lp.Send(tx.remote, a.d, func() { r.abortBranch(tid) })
		}
		delete(a.out, tid)
		return
	}
	if br, ok := a.in[tid]; ok { // participant branch killed
		br.killed = true
		a.release(a.wrote[tid].oid, tid)
		h := a.peers[br.home]
		a.lp.Send(br.home, a.d, func() { h.peerAborted(tid) })
		delete(a.in, tid)
		return
	}
	// Unknown tid: the kill crossed resolution bookkeeping; nothing left
	// to clean up.
}

// draw picks a free object from the reserve, which the caller has checked
// is not saturated, and records the hold.
func (a *crossArm) draw(tid logrec.TxID) logrec.OID {
	for {
		oid := logrec.OID(a.base + a.lp.Rand().Uint64N(a.reserve))
		if _, taken := a.held[oid]; !taken {
			a.held[oid] = tid
			return oid
		}
	}
}

// release drops a hold if tid still owns it. A branch that wrote nothing
// passes the zero oid, which it cannot own.
func (a *crossArm) release(oid logrec.OID, tid logrec.TxID) {
	if a.held[oid] == tid {
		delete(a.held, oid)
	}
}
