package core

import (
	"fmt"

	"ellog/internal/blockdev"
	"ellog/internal/container"
	"ellog/internal/flushdisk"
	"ellog/internal/logrec"
	"ellog/internal/metrics"
	"ellog/internal/sim"
	"ellog/internal/statedb"
	"ellog/internal/trace"
)

// Manager is the logging manager (LM): the DBMS component responsible for
// managing the log of database activity. One Manager instance implements
// either ephemeral logging or the firewall baseline, per its Params.
//
// The Manager is driven by the transaction stream (Begin, WriteData,
// Commit, Abort) and by its own simulated-time machinery: block writes
// completing, flush drives finishing, head pointers advancing to keep the
// threshold gap free.
type Manager struct {
	clk   sim.Clock
	p     Params
	dev   LogDevice
	flush *flushdisk.Array
	db    *statedb.DB

	// at is the clock reading of the call into the manager in progress: an
	// exported method, or a callback the manager handed to the device or
	// the clock, reads the clock once on entry (enter), and everything the
	// call does is stamped with that reading — the simulator's rule that a
	// handler runs at one instant, kept on the wall clock too.
	at sim.Time

	gens []*generation
	lot  *container.Table[*lotEntry]
	ltt  *container.Table[*lttEntry]

	nextLSN logrec.LSN
	onKill  func(logrec.TxID)
	// onInsufficient is nil-gated and fires at each of the three events that
	// make Insufficient() true; harness.Probe arms it to end the run there.
	onInsufficient func()
	tracer         trace.Sink

	// Fault-retry policy (EnableFaultRetries). faulty gates every hot-path
	// divergence from the fault-free model: with it false the manager is
	// byte-identical to a build without the fault subsystem.
	faulty       bool
	maxRetries   int
	retryBackoff sim.Time

	// pendingReverts tracks stolen flushes that were in service when their
	// transaction died; the completion is rolled back on arrival.
	pendingReverts map[logrec.OID]pendingRevert

	// Hot-path scratch, reused call after call (the engine is
	// single-threaded, so reuse needs no locking — only care about
	// re-entrancy, which each helper below handles):
	encBuf   []byte    // block wire-encoding buffer (writeOut)
	cellBufs [][]*cell // pool of head-cell snapshots (advanceHead recurses)
	bufPool  []*buffer // retired block buffers, reused LIFO
	allBufs  []*buffer // every buffer ever built, pooled or not (CheckInvariants)

	// Free lists for what a transaction's records need while they are in
	// the log (see DESIGN.md, "Recycling"): in steady state Begin, WriteData
	// and Commit allocate nothing.
	cells freeList[cell]
	lots  freeList[lotEntry]
	txs   freeList[lttEntry]
	recs  logrec.Pool

	// counters and gauges (see Stats)
	begins, commits, aborts, killedTxs  metrics.Counter
	appendedRecs, appendedBytes         metrics.Counter
	forwardedRecs, recircRecs, garbaged metrics.Counter
	emergencyBlocks, bufferStalls       metrics.Counter
	refugeeStalls                       metrics.Counter
	writeErrors, writeRetries           metrics.Counter
	abandonedWrites                     metrics.Counter
	lotGauge, lttGauge, memGauge        metrics.Gauge
	usedGauges                          []metrics.Gauge
	commitDelay                         metrics.Histogram
}

// New builds a Manager. The flush array's completion callback must be
// wired to the returned manager via its Flushed method; Assemble does that,
// and NewSetup does the whole assembly and is what most callers want. clk
// and dev decide the binding: a *sim.Engine and *blockdev.Device give the
// paper's simulation, a realtime.Loop and realdev.Device the real-file
// backend — the manager itself is identical code either way.
func New(clk sim.Clock, p Params, dev LogDevice, flush *flushdisk.Array, db *statedb.DB) (*Manager, error) {
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Manager{
		clk:            clk,
		p:              p,
		dev:            dev,
		flush:          flush,
		db:             db,
		lot:            container.NewTable[*lotEntry](),
		ltt:            container.NewTable[*lttEntry](),
		pendingReverts: make(map[logrec.OID]pendingRevert),
	}
	for i, size := range p.GenSizes {
		m.gens = append(m.gens, newGeneration(i, size, dev, p.BuffersPerGen))
	}
	m.usedGauges = make([]metrics.Gauge, len(m.gens))
	outer := m.enter()
	m.touchMem()
	m.leave(outer)
	return m, nil
}

// Setup bundles the substrate a Manager runs on.
type Setup struct {
	Eng   *sim.Engine
	Dev   *blockdev.Device
	Flush *flushdisk.Array
	DB    *statedb.DB
	LM    *Manager
}

// FlushConfig parameterizes the flush disk array (paper section 3: number
// of drives, per-object transfer time, total object count).
type FlushConfig struct {
	Drives     int
	Transfer   sim.Time
	NumObjects uint64
}

// NewSetup assembles engine-attached substrate and a Manager wired to it:
// the log device at the manager's write latency and a flush array whose
// completions feed back into the manager.
func NewSetup(eng *sim.Engine, p Params, fc FlushConfig) (*Setup, error) {
	dev := blockdev.New(eng, p.WithDefaults().WriteLatency)
	m, flush, err := Assemble(eng, p, dev, fc)
	if err != nil {
		return nil, err
	}
	return &Setup{Eng: eng, Dev: dev, Flush: flush, DB: m.DB(), LM: m}, nil
}

// Assemble wires a Manager to the substrate every binding shares — an empty
// stable database and a flush array whose completions feed back into the
// manager — on the clock and log device that make the binding: NewSetup
// passes the engine and a simulated device, realdev.Build the wall-clock
// loop and a file.
func Assemble(clk sim.Clock, p Params, dev LogDevice, fc FlushConfig) (*Manager, *flushdisk.Array, error) {
	var m *Manager
	flush := flushdisk.New(clk, fc.Drives, fc.Transfer, fc.NumObjects, func(req flushdisk.Request) {
		m.Flushed(req)
	})
	m, err := New(clk, p, dev, flush, statedb.New())
	return m, flush, err
}

// SetKillHandler registers a callback invoked whenever the manager kills a
// transaction for want of log space. The workload generator uses it to
// stop issuing the victim's remaining records.
func (m *Manager) SetKillHandler(fn func(logrec.TxID)) { m.onKill = fn }

// SetInsufficientHook registers a callback invoked every time the run shows
// its disk budget to be insufficient: a transaction killed for log space, an
// emergency block, a refugee stall — exactly the events Insufficient()
// reports afterwards. A caller that wants only that verdict stops its engine
// from the hook instead of simulating on to the horizon.
func (m *Manager) SetInsufficientHook(fn func()) { m.onInsufficient = fn }

func (m *Manager) noteInsufficient() {
	if m.onInsufficient != nil {
		m.onInsufficient()
	}
}

// EnableFaultRetries arms the bounded retry-with-backoff path for transient
// block-write errors (fault injection): a failed write is reissued up to
// maxRetries times, the k-th retry backoff<<(k-1) after the failure.
// Exhausted retries abandon the block: active and committing transactions
// with records aboard are killed like the overflow path, and committed
// updates are force flushed so no acknowledged state depends on the dead
// block. Never enabled in the fault-free model — fault.Attach calls it —
// so ordinary runs take the historical code path bit for bit.
func (m *Manager) EnableFaultRetries(maxRetries int, backoff sim.Time) {
	if maxRetries < 0 || backoff < 0 {
		panic("core: negative fault-retry policy")
	}
	m.faulty = true
	m.maxRetries = maxRetries
	m.retryBackoff = backoff
}

// SetTracer attaches a trace sink; nil detaches it. Tracing is off the
// paper's measurement path and exists for observability and debugging.
func (m *Manager) SetTracer(s trace.Sink) { m.tracer = s }

// emit sends a trace event if a sink is attached, stamping the time.
func (m *Manager) emit(e trace.Event) {
	if m.tracer == nil {
		return
	}
	e.At = m.at
	m.tracer.Emit(e)
}

// Params returns the manager's effective (defaulted) parameters.
func (m *Manager) Params() Params { return m.p }

// DB returns the stable database the manager flushes into.
func (m *Manager) DB() *statedb.DB { return m.db }

// Device returns the log device the manager appends to.
func (m *Manager) Device() LogDevice { return m.dev }

// enter starts a call into the manager: it takes the call's one clock
// reading and returns the reading of the call it interrupts, for leave to
// put back when it returns. Calls nest — an acknowledgement that begins the
// next transaction, a force flush's completion — and each is stamped with
// its own reading, so a reading never outlives the call that took it. On a
// simulated clock every reading of one event is the same instant.
func (m *Manager) enter() sim.Time {
	outer := m.at
	m.at = m.clk.Now()
	return outer
}

// leave ends the call enter started.
func (m *Manager) leave(outer sim.Time) { m.at = outer }

func (m *Manager) lsn() logrec.LSN {
	m.nextLSN++
	return m.nextLSN
}

func (m *Manager) lastGen() int { return len(m.gens) - 1 }

// --- transaction-facing API -------------------------------------------

// Begin starts a transaction: a BEGIN tx record enters the log and an LTT
// entry is created (section 2.3).
func (m *Manager) Begin(tid logrec.TxID) { m.BeginHinted(tid, 0) }

// BeginHinted starts a transaction whose expected lifetime is known, so
// the section 6 placement extension (when configured) can start its
// records directly in an older generation.
func (m *Manager) BeginHinted(tid logrec.TxID, expected sim.Time) {
	defer m.leave(m.enter())
	if _, ok := m.ltt.Get(uint64(tid)); ok {
		panic(fmt.Sprintf("core: Begin of existing transaction %d", tid))
	}
	e := m.txs.get()
	*e = lttEntry{
		tid:      tid,
		state:    txActive,
		beginAt:  m.at,
		startGen: m.p.startGen(expected),
	}
	c := m.newCell(m.recs.NewTxRecord(m.lsn(), m.at, logrec.KindBegin, tid, m.p.TxRecSize), e, nil)
	e.txCell = c
	m.ltt.Put(uint64(tid), e)
	m.appendTail(e.startGen, c, nil)
	m.begins.Inc()
	m.touchMem()
}

// WriteData logs an update of size bytes to object oid by transaction tid
// and returns the record's LSN (the synthetic new value of the object,
// which lets test oracles verify recovery exactly).
func (m *Manager) WriteData(tid logrec.TxID, oid logrec.OID, size int) logrec.LSN {
	defer m.leave(m.enter())
	e := m.mustTx(tid)
	if e.state != txActive {
		panic(fmt.Sprintf("core: WriteData on %v transaction %d", e.state, tid))
	}
	if size > m.p.BlockPayload {
		panic(fmt.Sprintf("core: record of %d bytes exceeds block payload %d", size, m.p.BlockPayload))
	}
	rec := m.recs.NewDataRecord(m.lsn(), m.at, tid, oid, size)
	le := m.lotFor(oid)
	// Record the before-image: the latest committed version of the object
	// before this transaction touched it (the UNDO information of the
	// steal extension; harmless bookkeeping under pure REDO).
	old := le.writerCell(tid)
	if old != nil {
		rec.PrevLSN, rec.PrevVal = old.rec.PrevLSN, old.rec.PrevVal
	} else if le.committed != nil {
		rec.PrevLSN, rec.PrevVal = le.committed.rec.LSN, le.committed.rec.Val
	} else if v, ok := m.db.Get(oid); ok {
		rec.PrevLSN, rec.PrevVal = v.LSN, v.Val
	}
	if old != nil {
		// The transaction overwrote its own earlier update: only the last
		// value matters under REDO logging, so the old record is garbage.
		le.removeWriter(old)
		m.unlink(old)
	}
	c := m.newCell(rec, e, le)
	le.addWriter(c)
	e.addCell(c)
	// The append can kill this very transaction, and a dead cell's record
	// goes back to the pool: read the LSN first.
	lsn := rec.LSN
	m.appendTail(e.startGen, c, nil)
	m.touchMem()
	return lsn
}

// Commit appends the COMMIT tx record. The transaction commits once that
// record is durable (group commit); onDurable, if non-nil, is invoked at
// that moment — the paper's acknowledgement at time t4.
func (m *Manager) Commit(tid logrec.TxID, onDurable func()) {
	defer m.leave(m.enter())
	e := m.mustTx(tid)
	if e.state != txActive {
		panic(fmt.Sprintf("core: Commit on %v transaction %d", e.state, tid))
	}
	e.state = txCommitting
	e.onDurable = onDurable
	e.commitAppAt = m.at
	m.replaceTxRecord(e, logrec.KindCommit)
}

// replaceTxRecord points the transaction's single tx cell at a fresh tx
// record of the given kind and re-appends it at the tail: the cell is
// updated to the newest tx record and moved to the tail end of the cell
// list (section 2.3 footnote 4); the earlier record becomes garbage in
// place.
func (m *Manager) replaceTxRecord(e *lttEntry, kind logrec.Kind) {
	rec := m.recs.NewTxRecord(m.lsn(), m.at, kind, e.tid, m.p.TxRecSize)
	c := e.txCell
	if c.inList {
		g := m.gens[c.gen]
		g.list.remove(c)
		g.noteAge(m.at - c.arrived)
	}
	// The superseded record is garbage whether its cell is listed or
	// still riding detached in an unwritten buffer; counting only the
	// listed case would leave appended != garbaged + live.
	m.garbaged.Inc()
	if c.buf == nil {
		m.recs.Put(c.rec) // its block is durable: the cell was the last holder
	}
	c.rec, c.buf, c.slot = rec, nil, nil
	m.appendTail(e.startGen, c, nil)
}

// Prepare appends the PREPARE tx record for a cross-shard participant
// branch (2PC-in-the-log). Once the record is durable the branch is
// prepared — in doubt — and onPrepared fires; from then on the branch can
// only be resolved by ResolveCommit or ResolveAbort, never killed, so it
// pins its generation's retirement eligibility until resolved.
func (m *Manager) Prepare(tid logrec.TxID, onPrepared func()) {
	defer m.leave(m.enter())
	e := m.mustTx(tid)
	if e.state != txActive {
		panic(fmt.Sprintf("core: Prepare on %v transaction %d", e.state, tid))
	}
	e.state = txPreparing
	e.onPrepared = onPrepared
	e.commitAppAt = m.at
	m.replaceTxRecord(e, logrec.KindPrepare)
}

// DecideCommit appends the DECIDE tx record on the coordinator shard of a
// cross-shard transaction: it is at once the coordinator's own COMMIT and
// the global commit decision. pins counts the remote participant branches;
// the entry — and with it the DECIDE record — stays in the log until every
// one of them has retired (Unpin), so a crashed participant replaying a
// durable PREPARE can always find the decision in the coordinator's log.
func (m *Manager) DecideCommit(tid logrec.TxID, pins int, onDurable func()) {
	defer m.leave(m.enter())
	e := m.mustTx(tid)
	if e.state != txActive {
		panic(fmt.Sprintf("core: DecideCommit on %v transaction %d", e.state, tid))
	}
	if pins < 0 {
		panic("core: DecideCommit with negative pin count")
	}
	e.state = txCommitting
	e.onDurable = onDurable
	e.pins = pins
	e.commitAppAt = m.at
	m.replaceTxRecord(e, logrec.KindDecide)
}

// ResolveCommit applies the coordinator's commit decision to a prepared
// participant branch: the branch commits exactly as if its own COMMIT had
// just become durable, except that no new record enters the log — the
// branch's durable PREPARE plus the coordinator's durable DECIDE are the
// commit evidence. onRetired, if non-nil, fires when the branch's LTT
// entry retires (every update flushed); the 2PC overlay uses it to unpin the
// coordinator's DECIDE record.
func (m *Manager) ResolveCommit(tid logrec.TxID, onRetired func()) {
	defer m.leave(m.enter())
	e := m.mustTx(tid)
	if e.state != txPrepared {
		panic(fmt.Sprintf("core: ResolveCommit on %v transaction %d", e.state, tid))
	}
	e.onRetired = onRetired
	e.state = txCommitting
	m.commitDurable(e)
}

// ResolveAbort applies an abort decision — explicit or presumed — to a
// cross-shard participant branch: every record of the branch becomes
// garbage and its LTT entry disappears, exactly like Abort. It accepts an
// active, preparing or prepared branch (a sibling-shard kill aborts
// branches that have not prepared yet; presumed abort resolves prepared
// ones). No decision record is ever logged for an abort.
func (m *Manager) ResolveAbort(tid logrec.TxID) {
	defer m.leave(m.enter())
	e := m.mustTx(tid)
	switch e.state {
	case txActive, txPreparing, txPrepared:
	default:
		panic(fmt.Sprintf("core: ResolveAbort on %v transaction %d", e.state, tid))
	}
	m.dropTx(e, false)
	m.aborts.Inc()
}

// Unpin releases one participant pin on a coordinator entry; once the pin
// count reaches zero and every local update has flushed, the entry — and
// its DECIDE record — finally retires.
func (m *Manager) Unpin(tid logrec.TxID) {
	defer m.leave(m.enter())
	e := m.mustTx(tid)
	if e.pins <= 0 {
		panic(fmt.Sprintf("core: Unpin of unpinned transaction %d", tid))
	}
	e.pins--
	m.maybeRetire(e)
}

// Abort voluntarily aborts an active transaction: all its records become
// garbage immediately and its LTT entry is deleted (section 2.3).
func (m *Manager) Abort(tid logrec.TxID) {
	defer m.leave(m.enter())
	e := m.mustTx(tid)
	if e.state != txActive {
		panic(fmt.Sprintf("core: Abort on %v transaction %d", e.state, tid))
	}
	m.dropTx(e, false)
	m.aborts.Inc()
}

func (m *Manager) mustTx(tid logrec.TxID) *lttEntry {
	e, ok := m.ltt.Get(uint64(tid))
	if !ok {
		panic(fmt.Sprintf("core: unknown transaction %d", tid))
	}
	return e
}

func (m *Manager) lotFor(oid logrec.OID) *lotEntry {
	if le, ok := m.lot.Get(uint64(oid)); ok {
		return le
	}
	le := m.lots.get()
	le.oid, le.free = oid, false
	m.lot.Put(uint64(oid), le)
	return le
}

// dropLot deletes an emptied LOT entry and recycles it. Its cells are all
// garbage by now, so nothing reads their obj pointer again.
func (m *Manager) dropLot(le *lotEntry) {
	m.lot.Delete(uint64(le.oid))
	*le = lotEntry{superseded: le.superseded[:0], free: true}
	m.lots.put(le)
}

// newCell takes a cell off the free list for a record entering the log.
func (m *Manager) newCell(rec *logrec.Record, tx *lttEntry, obj *lotEntry) *cell {
	c := m.cells.get()
	*c = cell{rec: rec, tx: tx, obj: obj}
	return c
}

// freeCell recycles the cell of a garbage record that nothing links to any
// more: not its generation's list, not the LOT or LTT. The record goes with
// it unless a block buffer still has to write it — then the buffer recycles
// the record when its write ends (recycleBuffer). Buffers keep pointers to
// the cells they carried; they tell a recycled cell by its record no longer
// being the one they hold.
func (m *Manager) freeCell(c *cell) {
	if c.gen < 0 {
		panic("core: cell freed twice")
	}
	if c.buf == nil {
		m.recs.Put(c.rec)
	}
	*c = cell{gen: -1}
	m.cells.put(c)
}

// takeCells borrows a cell-snapshot buffer from the pool (empty, capacity
// preserved). advanceHead can re-enter itself through appendTail's
// space-making cascade, so a single scratch slice would be clobbered
// mid-iteration; the pool gives every nesting level its own buffer.
func (m *Manager) takeCells() []*cell {
	if n := len(m.cellBufs); n > 0 {
		s := m.cellBufs[n-1]
		m.cellBufs = m.cellBufs[:n-1]
		return s[:0]
	}
	return nil
}

// putCells returns a snapshot buffer to the pool once its caller is done
// iterating it.
func (m *Manager) putCells(s []*cell) { m.cellBufs = append(m.cellBufs, s) }

// newBuffer takes a block buffer off the pool (or builds one) for g's tail,
// with the full payload free and the given slot.
func (m *Manager) newBuffer(g *generation, s *slot) *buffer {
	if n := len(m.bufPool); n > 0 {
		b := m.bufPool[n-1]
		m.bufPool = m.bufPool[:n-1]
		b.gen = g
		b.slot = s
		b.free = m.p.BlockPayload
		b.sealed = false
		return b
	}
	b := &buffer{gen: g, slot: s, free: m.p.BlockPayload, epoch: 1}
	b.done = func(err error) { m.writeDone(b, err) }
	b.timeout = func() { m.groupCommitTimeout(b) }
	m.allBufs = append(m.allBufs, b)
	return b
}

// recycleBuffer retires a buffer whose write completed or was abandoned. The
// epoch bump invalidates any group-commit timeout still holding the pointer;
// clearing the slices keeps the pool from pinning dead records and cells.
// The buffer was the last thing to need each record whose cell has since
// moved on to another record or died; those go back to the pool here. A
// record its cell still holds stays, and from now on dies with that cell.
func (m *Manager) recycleBuffer(b *buffer) {
	for i, r := range b.recs {
		if c := b.cells[i]; c.rec == r {
			c.buf = nil
		} else {
			m.recs.Put(r)
		}
	}
	b.epoch++
	b.slot = nil
	b.gen = nil
	clear(b.recs)
	clear(b.cells)
	clear(b.origins)
	clear(b.commits)
	b.recs, b.cells, b.origins, b.commits = b.recs[:0], b.cells[:0], b.origins[:0], b.commits[:0]
	m.bufPool = append(m.bufPool, b)
}

// unlink disposes a cell: its record is now garbage. The caller has already
// taken it out of its LOT entry (or is dropping the LTT entry whose tx cell
// it is). A listed cell is recycled on the spot. A detached one — a new
// record mid-append, or one being forwarded or recirculated, whose
// space-making cascade came back to kill it — is still in its mover's hands:
// it is only marked dead, and appendTail recycles it instead of appending.
func (m *Manager) unlink(c *cell) {
	if c.inTx {
		c.tx.removeCell(c)
	}
	m.garbaged.Inc()
	if !c.inList {
		c.dead = true
		return
	}
	g := m.gens[c.gen]
	g.list.remove(c)
	g.noteAge(m.at - c.arrived)
	m.freeCell(c)
}

// dropTx implements abort and kill: every record of the transaction
// becomes garbage and the LTT entry disappears.
func (m *Manager) dropTx(e *lttEntry, killed bool) {
	e.state = txAborted
	e.killed = killed
	// Only a transaction that has not committed is ever dropped, so every
	// cell on its chain is an uncommitted update.
	for c := e.cells; c != nil; {
		next, le := c.txNext, c.obj
		m.undoStolen(le.oid, c, e.tid)
		le.removeWriter(c)
		m.unlink(c)
		if le.empty() {
			m.dropLot(le)
		}
		c = next
	}
	// The tx record is garbage even when its cell is detached (killed by
	// the space-making cascade of its own append, or mid-move). The entry
	// itself is left to the garbage collector: a buffer in flight may still
	// list it among its commits, and kills are not the steady state.
	m.unlink(e.txCell)
	m.ltt.Delete(uint64(e.tid))
	if killed {
		m.killedTxs.Inc()
		m.emit(trace.Event{Kind: trace.EvKill, Gen: -1, Tx: e.tid})
		if m.onKill != nil {
			m.onKill(e.tid)
		}
		m.noteInsufficient()
	}
	m.touchMem()
}

// pendingRevert remembers the before-image for a stolen flush whose
// transaction died while the flush was in service.
type pendingRevert struct {
	tx   logrec.TxID
	lsn  logrec.LSN
	prev statedb.Version
}

// undoStolen rolls back a dying transaction's stolen update: if the flush
// completed, the stable database reverts to the before-image now; if it is
// still in service, the revert is registered for the completion; a merely
// queued request is withdrawn.
func (m *Manager) undoStolen(oid logrec.OID, c *cell, tid logrec.TxID) {
	if !m.p.Steal || c.rec.Kind != logrec.KindData {
		return
	}
	prev := statedb.Version{LSN: c.rec.PrevLSN, Val: c.rec.PrevVal}
	switch {
	case c.flushed:
		m.db.ForceSet(oid, prev)
	case c.stolenQueued && !m.flush.Remove(oid):
		m.pendingReverts[oid] = pendingRevert{tx: tid, lsn: c.rec.LSN, prev: prev}
	}
}

// touchMem refreshes the main-memory gauges using the paper's accounting:
// MemPerTx bytes per LTT entry plus MemPerObj bytes per LOT entry.
func (m *Manager) touchMem() {
	m.lotGauge.Set(m.at, float64(m.lot.Len()))
	m.lttGauge.Set(m.at, float64(m.ltt.Len()))
	m.memGauge.Set(m.at, float64(m.p.MemPerTx*m.ltt.Len()+m.p.MemPerObj*m.lot.Len()))
}
