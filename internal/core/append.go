package core

import (
	"fmt"

	"ellog/internal/flushdisk"
	"ellog/internal/logrec"
	"ellog/internal/statedb"
	"ellog/internal/trace"
)

// usesPend reports whether generation g appends through the lazy, slotless
// pending buffer. That is a recirculating last generation (FW never
// recirculates): its tail receives recirculated records ("placed in a buffer
// without immediately writing it to disk", section 2.2) interleaved with
// forwarded ones, and sharing a single buffer keeps cell-list order equal
// to block order — the property the h_i head test relies on.
func (m *Manager) usesPend(g *generation) bool {
	return g.idx == m.lastGen() && m.p.Recirculate
}

// appendTail adds a record (via its cell) to generation gi's tail. origin
// is non-nil when the record is being moved from another block (forwarding
// or recirculation); it is nil for records newly entering the log, which
// are counted and, for COMMIT records, tracked for the group-commit
// acknowledgement.
func (m *Manager) appendTail(gi int, c *cell, origin *slot) {
	g := m.gens[gi]
	if c.rec.Size > m.p.BlockPayload {
		panic(fmt.Sprintf("core: record of %d bytes exceeds block payload %d", c.rec.Size, m.p.BlockPayload))
	}
	if origin == nil {
		// Count new records on entry, before the space-making below: its
		// cascade can kill the very transaction being appended, whose
		// records are then all counted as garbage — including this one.
		// Counting only survivors would leave appended != garbaged + live.
		m.appendedRecs.Inc()
		m.appendedBytes.Addn(uint64(c.rec.Size))
	}
	var b *buffer
	if m.usesPend(g) {
		if g.pend != nil && c.rec.Size > g.pend.free {
			m.sealPend(g)
		}
		if g.pend == nil {
			m.takeToken(g)
			g.pend = m.newBuffer(g, nil)
		}
		b = g.pend
	} else {
		if g.fill == nil || c.rec.Size > g.fill.free {
			m.sealFill(g)
			m.openFill(g)
		}
		b = g.fill
	}
	// Making space above can cascade into killing a transaction or force
	// flushing an update — possibly the very record being appended. A cell
	// that died meanwhile is garbage and must not enter the log again; it
	// was detached, so unlink left recycling it to us.
	if c.dead {
		m.freeCell(c)
		return
	}
	if b == g.pend {
		c.slot = nil // belongs to whichever block is written at the tail
	} else {
		c.slot = b.slot
	}
	b.free -= c.rec.Size
	b.recs = append(b.recs, c.rec)
	b.cells = append(b.cells, c)
	c.buf = b
	c.origin = origin
	src := c.gen
	c.gen = gi
	c.arrived = m.at
	g.epochIn++
	g.list.pushNewest(c)
	if origin != nil {
		origin.refugees++
		b.origins = append(b.origins, origin)
		// Record-level move trail: Gen is where the record came from, N
		// where it landed (equal for recirculation).
		m.emit(trace.Event{Kind: trace.EvMove, Gen: src, Tx: c.rec.Tx, Obj: c.rec.Obj, LSN: c.rec.LSN, N: gi})
		return
	}
	// N carries the record kind so trace consumers can tell BEGIN/COMMIT
	// appends from data appends without guessing from Obj (0 is a legal OID).
	m.emit(trace.Event{Kind: trace.EvAppend, Gen: gi, Tx: c.rec.Tx, Obj: c.rec.Obj, LSN: c.rec.LSN, N: int(c.rec.Kind)})
	switch c.rec.Kind {
	case logrec.KindCommit, logrec.KindPrepare, logrec.KindDecide:
		// Records whose durability advances a transaction's state: COMMIT
		// and DECIDE acknowledge a commit, PREPARE completes a participant
		// branch's vote.
		b.commits = append(b.commits, c.tx)
		if len(b.commits) == 1 {
			m.armGroupCommitTimeout(b)
		}
	}
}

// armGroupCommitTimeout bounds how long a COMMIT may wait for its buffer
// to fill (disabled, per the paper, unless Params.GroupCommitTimeout > 0).
// Only a buffer's first COMMIT, PREPARE or DECIDE arms it, and that is
// exactly the policy of a timer per COMMIT: a buffer stops being its
// generation's fill or pend buffer only by being written, which seals it,
// and sealPend always finds a slot, so the first timer to fire seals the
// buffer and every later one would find it sealed.
func (m *Manager) armGroupCommitTimeout(b *buffer) {
	if m.p.GroupCommitTimeout <= 0 {
		return
	}
	b.timers++
	b.armedFor = b.epoch
	m.clk.At(m.at+m.p.GroupCommitTimeout, b.timeout)
}

// groupCommitTimeout is every buffer's group-commit timer (buffer.timeout).
// Buffers are pooled, so a timer armed for a block the buffer carried
// before may still be pending while it fills the next, and sealing that
// one early would change behavior. A buffer's timers fire in the order
// they were armed, so only the last one can be for the block the buffer
// holds now — if that block is the epoch it was armed for.
func (m *Manager) groupCommitTimeout(b *buffer) {
	b.timers--
	if b.timers > 0 || b.sealed || b.epoch != b.armedFor {
		return
	}
	defer m.leave(m.enter())
	if g := b.gen; g.fill == b {
		m.sealFill(g)
	} else if g.pend == b {
		m.sealPend(g)
	}
}

// openFill claims the next tail block and prepares a buffer for it.
func (m *Manager) openFill(g *generation) {
	s := m.claimGuarded(g)
	s.state = slotFilling
	m.takeToken(g)
	g.fill = m.newBuffer(g, s)
}

// sealFill writes out the current fill buffer, if any.
func (m *Manager) sealFill(g *generation) {
	if g.fill == nil {
		return
	}
	b := g.fill
	g.fill = nil
	m.writeOut(g, b)
}

// sealPend claims a tail slot for the pending buffer and writes it.
func (m *Manager) sealPend(g *generation) {
	if g.pend == nil {
		return
	}
	s := m.claimGuarded(g)
	m.writePend(g, s)
}

// sealTail forces whatever buffer is open at g's tail to disk — used when
// a forward batch lands records that must be immediately durable.
func (m *Manager) sealTail(g *generation) {
	if m.usesPend(g) {
		m.sealPend(g)
	} else {
		m.sealFill(g)
	}
}

// tailFree reports the free bytes in g's open tail buffer, or -1 if none
// is open.
func (m *Manager) tailFree(g *generation) int {
	if m.usesPend(g) {
		if g.pend == nil {
			return -1
		}
		return g.pend.free
	}
	if g.fill == nil {
		return -1
	}
	return g.fill.free
}

// writePend assigns the pending buffer to slot s and writes it. Cells
// still live at that point acquire their new block position.
func (m *Manager) writePend(g *generation, s *slot) {
	b := g.pend
	if b == nil {
		panic("core: writePend with no pending buffer")
	}
	g.pend = nil
	b.slot = s
	s.state = slotFilling
	for i, c := range b.cells {
		if c.rec == b.recs[i] && c.inList && c.slot == nil {
			c.slot = s
		}
	}
	m.writeOut(g, b)
}

// writeOut issues the block write for a sealed buffer and handles its
// completion: the slot becomes durable, refugee counts drop, and any
// COMMIT records riding in the buffer make their transactions durable —
// the group-commit acknowledgement at the paper's time t4.
func (m *Manager) writeOut(g *generation, b *buffer) {
	s := b.slot
	if s == nil {
		panic("core: writing slotless buffer")
	}
	if s.state != slotFilling {
		panic(fmt.Sprintf("core: writeOut on %v slot", s.state))
	}
	s.state = slotInFlight
	b.sealed = true
	b.attempt = 1
	m.emit(trace.Event{Kind: trace.EvSeal, Gen: g.idx, N: len(b.recs)})
	m.issueWrite(b)
}

// issueWrite encodes a sealed buffer and issues its block write. The device
// copies the bytes synchronously (it must, to hold the durable crash
// image), so one manager-wide encode buffer can be reused for every block
// write — including retries, which re-encode because other writes borrow
// the buffer during the backoff.
func (m *Manager) issueWrite(b *buffer) {
	m.encBuf = logrec.AppendBlock(m.encBuf[:0], b.recs)
	m.dev.Write(b.slot.id, m.encBuf, b.done)
}

// writeDone is every buffer's device completion (buffer.done).
func (m *Manager) writeDone(b *buffer, err error) {
	defer m.leave(m.enter())
	if err != nil {
		m.writeFailed(b)
		return
	}
	m.writeDurable(b)
}

// writeDurable handles a completed block write: the slot becomes durable,
// refugee counts drop, and any COMMIT records riding in the buffer make
// their transactions durable — the group-commit acknowledgement at the
// paper's time t4.
func (m *Manager) writeDurable(b *buffer) {
	g := b.gen
	b.slot.state = slotDurable
	m.emit(trace.Event{Kind: trace.EvDurable, Gen: g.idx, N: len(b.recs)})
	m.putToken(g)
	for _, o := range b.origins {
		o.refugees--
	}
	if m.p.Steal {
		m.stealFlushDurable(b)
	}
	for _, tx := range b.commits {
		m.commitDurable(tx)
	}
	m.recycleBuffer(b)
}

// writeFailed handles a transient write error (fault injection): the block
// is reissued after an exponential backoff until the retry budget runs out,
// then abandoned. The failed attempt already counted against the disk's
// bandwidth stats — the disk did the work.
func (m *Manager) writeFailed(b *buffer) {
	g := b.gen
	m.writeErrors.Inc()
	if b.attempt <= m.maxRetries {
		m.writeRetries.Inc()
		m.emit(trace.Event{Kind: trace.EvRetry, Gen: g.idx, N: b.attempt})
		m.clk.At(m.at+m.retryBackoff<<(b.attempt-1), func() {
			defer m.leave(m.enter())
			b.attempt++
			m.issueWrite(b)
		})
		return
	}
	m.abandonWrite(b)
}

// abandonWrite gives up on a block whose write errored past the retry
// budget, resolving every live record aboard by whether its transaction's
// outcome can still become durable. An active transaction, and a
// committing or preparing one whose COMMIT or PREPARE was in the dead
// block, is killed: no one was or will be told it committed. Any other
// committing, preparing or prepared transaction's records are re-logged at
// the tail, since its outcome record is or will be durable and recovery
// will need them; one moved here keeps its origin block sheltered until
// the new copy is durable. Committed updates are force flushed, and
// committed tx records retired by flushing. Afterwards nothing references
// the block, so its slot is reclaimable as all-garbage.
func (m *Manager) abandonWrite(b *buffer) {
	g := b.gen
	m.abandonedWrites.Inc()
	relog := m.takeCells()
	defer func() { m.putCells(relog) }()
	for i, c := range b.cells {
		if c.rec != b.recs[i] || !c.inList {
			continue // the record is garbage already
		}
		e := c.tx
		switch {
		case e.state == txActive,
			(e.state == txCommitting || e.state == txPreparing) && e.txCell.buf == b:
			m.dropTx(e, true)
		case e.state == txCommitting || e.state == txPreparing || e.state == txPrepared:
			m.gens[c.gen].list.remove(c)
			if c.origin != nil {
				c.origin.refugees++ // held across the recycle below
			}
			relog = append(relog, c)
		case c.rec.Kind == logrec.KindData && c.committed:
			m.forceFlushCell(c)
		case (c.rec.Kind == logrec.KindCommit || c.rec.Kind == logrec.KindDecide) && e.state == txCommitted:
			m.forceFlushTx(e)
		}
	}
	// The dead block's claims on the blocks its records were moved out of
	// end here; the holds above keep the re-logged records' claims.
	for _, o := range b.origins {
		o.refugees--
	}
	// The slot's durable contents are its previous bytes — stale records
	// recovery discards — and no live cell points at it, so for the
	// manager's accounting it is a durable all-garbage block.
	dead := b.slot
	dead.state = slotDurable
	m.putToken(g)
	m.recycleBuffer(b)
	// A record new to the log in the dead block has no durable copy to
	// shelter; the dead slot stands in as its origin, so it re-enters as a
	// move rather than as a new append.
	for _, c := range relog {
		if from := c.origin; from != nil {
			m.appendTail(g.idx, c, from)
			from.refugees-- // the new buffer holds the claim now
		} else {
			m.appendTail(g.idx, c, dead)
		}
	}
}

func (m *Manager) takeToken(g *generation) {
	if g.tokens <= 0 {
		// The paper's model has no feedback from the LM into transaction
		// pacing, so buffer exhaustion is recorded rather than blocked on.
		m.bufferStalls.Inc()
	}
	g.tokens--
}

func (m *Manager) putToken(g *generation) { g.tokens++ }

// claimGuarded claims the next tail slot after making space and ensuring
// the slot's previous contents are no longer anyone's only durable copy.
func (m *Manager) claimGuarded(g *generation) *slot {
	for attempts := 0; ; attempts++ {
		if attempts > g.size()+4 {
			m.emergencyGrow(g)
		}
		m.ensureSpace(g)
		s := g.ring[g.tail]
		// A slot with refugees still holds the only durable copies of
		// records sitting in an unwritten buffer. If every one of them rides
		// in this generation's pending buffer — the buffer sealPend, the
		// only caller that has one, is about to write — that buffer may take
		// this very slot: the old bytes stay durable until the (atomic)
		// write completes, and the new copy supersedes them.
		if s.refugees == 0 || (g.pend != nil && originsIn(g.pend, s) == s.refugees) {
			claimed := g.claimSlot()
			m.usedGauges[g.idx].Set(m.at, float64(g.used))
			return claimed
		}
		// Refugees ride in an in-flight buffer; the write completes within
		// tau_DiskWrite but an event-driven claim cannot wait. Insert an
		// emergency block instead and record the stall — any run where
		// this fires is treated as having insufficient space.
		m.refugeeStalls.Inc()
		m.noteInsufficient()
		m.emergencyGrow(g)
	}
}

// originsIn counts the records in b drained out of slot s.
func originsIn(b *buffer, s *slot) int {
	n := 0
	for _, o := range b.origins {
		if o == s {
			n++
		}
	}
	return n
}

// ensureSpace advances the head of g until at least ThresholdK+1 slots are
// free ("at least k blocks must be available to hold new log records",
// section 3, plus the one about to be claimed).
func (m *Manager) ensureSpace(g *generation) {
	iters := 0
	for g.freeSlots() <= m.p.ThresholdK {
		iters++
		if iters > 4*g.size()+16 {
			// A full revolution without net progress: everything in the
			// generation is still needed. Sacrifice a victim.
			if !m.killVictim(g) {
				m.emergencyGrow(g)
				return
			}
			iters = 0
			continue
		}
		if m.advanceHead(g) {
			continue
		}
		if !m.killVictim(g) {
			m.emergencyGrow(g)
			return
		}
	}
}

// emergencyGrow inserts one extra block so the simulation can proceed when
// a generation is configured too small to make forward progress. Any run
// with emergency blocks is reported as having exceeded its disk budget.
func (m *Manager) emergencyGrow(g *generation) {
	g.grow(m.dev, 1)
	g.epochEmerg++
	m.emergencyBlocks.Inc()
	m.emit(trace.Event{Kind: trace.EvResize, Gen: g.idx, N: 1})
	m.noteInsufficient()
}

// commitDurable is the moment a transaction actually commits: its COMMIT
// record reached disk. Updates become flushable only now (section 2.2:
// "the LM can flush a data log record's update to disk any time after its
// transaction has committed") and, in EL, earlier committed versions of
// the same objects become garbage.
func (m *Manager) commitDurable(e *lttEntry) {
	if e.state == txPreparing {
		// The durable record was a PREPARE, not a COMMIT: the branch is now
		// in doubt, awaiting the coordinator's decision.
		e.state = txPrepared
		if e.onPrepared != nil {
			e.onPrepared()
		}
		return
	}
	if e.state != txCommitting {
		return // killed or aborted while the commit was in flight
	}
	e.state = txCommitted
	m.commits.Inc()
	m.commitDelay.Observe((m.at - e.commitAppAt).Seconds())
	m.emit(trace.Event{Kind: trace.EvCommit, Gen: -1, Tx: e.tid})
	// The entry can retire — and be recycled — before this returns.
	onDurable := e.onDurable

	if m.p.Mode == ModeFirewall {
		// Per the paper's FW simulation, commitment makes all the
		// transaction's records garbage immediately (no checkpoint
		// bookkeeping is charged — an omission the paper notes favours
		// FW). The stable database is still updated via the flush array so
		// the two techniques impose the same flush load.
		for c := e.cells; c != nil; {
			next, le := c.txNext, c.obj
			m.flush.Enqueue(flushdisk.Request{Obj: le.oid, LSN: c.rec.LSN, Val: c.rec.Val, Tx: c.rec.Tx})
			le.removeWriter(c)
			m.unlink(c)
			if le.empty() {
				m.dropLot(le)
			}
			c = next
		}
		m.retire(e)
	} else {
		for c := e.cells; c != nil; c = c.txNext {
			le := c.obj
			le.removeWriter(c)
			if old := le.committed; old != nil {
				if m.p.BroadNonGarbage {
					// Without per-object version timestamps the superseded
					// record must stay in the log until the new version is
					// flushed (paper section 6).
					le.superseded = append(le.superseded, old)
				} else {
					// The earlier committed update is superseded and
					// garbage; it leaves its own transaction's chain.
					tx := old.tx
					m.unlink(old)
					m.maybeRetire(tx)
				}
			}
			c.committed = true
			le.committed = c
			if c.flushed {
				// Stolen and already on disk: pay the commit-time write
				// that clears the stolen marker; the record stays
				// non-garbage until it lands.
				c.cleanQueued = true
				m.flush.Enqueue(flushdisk.Request{Obj: le.oid, LSN: c.rec.LSN, Val: c.rec.Val, Tx: c.rec.Tx, Clean: true})
			} else {
				m.flush.Enqueue(flushdisk.Request{Obj: le.oid, LSN: c.rec.LSN, Val: c.rec.Val, Tx: c.rec.Tx})
			}
		}
		if e.nCells == 0 {
			m.maybeRetire(e) // read-only transaction (unless pinned)
		}
	}
	if onDurable != nil {
		onDurable()
	}
	m.touchMem()
}

// Flushed is the flush array's completion callback: the update is applied
// to the stable database and, if it is still the object's most recently
// committed version, its log record becomes garbage.
func (m *Manager) Flushed(req flushdisk.Request) {
	defer m.leave(m.enter())
	m.emit(trace.Event{Kind: trace.EvFlush, Gen: -1, Obj: req.Obj, LSN: req.LSN})
	switch {
	case req.Clean:
		m.db.Clean(req.Obj, req.LSN)
	case req.Stolen:
		m.db.ApplyVersion(req.Obj, statedb.Version{LSN: req.LSN, Val: req.Val, Tx: req.Tx, Stolen: true})
	default:
		m.db.Apply(req.Obj, req.LSN, req.Val, req.Tx)
	}
	if pr, ok := m.pendingReverts[req.Obj]; ok && pr.tx == req.Tx && pr.lsn == req.LSN {
		// The writer died while this stolen flush was in service: roll the
		// version straight back to the before-image.
		delete(m.pendingReverts, req.Obj)
		m.db.ForceSet(req.Obj, pr.prev)
		return
	}
	le, ok := m.lot.Get(uint64(req.Obj))
	if !ok {
		return
	}
	if req.Stolen {
		if c := le.writerCell(req.Tx); c != nil && c.rec.LSN == req.LSN {
			c.flushed = true // undo information retained until commit/abort
			return
		}
		if c := le.committed; c != nil && c.rec.LSN == req.LSN && c.rec.Tx == req.Tx && !c.cleanQueued {
			// The transaction committed while the stolen flush was in
			// service; clear the marker it just planted.
			c.cleanQueued = true
			m.flush.Enqueue(flushdisk.Request{Obj: req.Obj, LSN: req.LSN, Val: req.Val, Tx: req.Tx, Clean: true})
		}
		return
	}
	c := le.committed
	if c == nil || c.rec.LSN != req.LSN {
		return // stale completion; a newer version superseded this one
	}
	tx := c.tx
	le.committed = nil
	m.unlink(c)
	m.maybeRetire(tx)
	// The flushed version now anchors recovery even without version
	// timestamps: every retained older version becomes garbage.
	for _, old := range le.superseded {
		// A superseded cell caught detached mid-move still becomes garbage.
		tx := old.tx
		m.unlink(old)
		m.maybeRetire(tx)
	}
	clear(le.superseded)
	le.superseded = le.superseded[:0]
	if le.empty() {
		m.dropLot(le)
	}
	m.touchMem()
}

// stealFlushDurable enqueues stolen flushes for the still-uncommitted data
// records of a buffer that just became durable — the write-ahead rule: the
// log record reaches disk before the stable database may be dirtied.
func (m *Manager) stealFlushDurable(b *buffer) {
	for i, c := range b.cells {
		if c.rec != b.recs[i] || !c.inList || c.rec.Kind != logrec.KindData || c.committed ||
			c.stolenQueued || c.tx.state != txActive {
			continue
		}
		// The flush queue holds one request per object; stealing while a
		// previous committed version still awaits its flush would clobber
		// that (required) request, so the steal is skipped — this update
		// simply flushes after commit like any other.
		if c.obj != nil && c.obj.committed != nil {
			continue
		}
		c.stolenQueued = true
		m.flush.Enqueue(flushdisk.Request{
			Obj: c.rec.Obj, LSN: c.rec.LSN, Val: c.rec.Val, Tx: c.rec.Tx, Stolen: true,
		})
	}
}

// maybeRetire removes a committed transaction's LTT entry once its last
// non-garbage data record is gone (section 2.3) — and, for a cross-shard
// coordinator, once every remote participant branch has retired (the
// DECIDE record must outlive any PREPARE that could be replayed in doubt).
func (m *Manager) maybeRetire(e *lttEntry) {
	if e.state == txCommitted && e.nCells == 0 && e.pins == 0 {
		m.retire(e)
	}
}

func (m *Manager) retire(e *lttEntry) {
	// Force flushing a transaction's updates can retire the entry from
	// inside the (synchronous) flush completion; the caller's own retire
	// then sees a committed entry with no oids left. Guard on LTT
	// membership so the tx record is counted as garbage exactly once.
	if cur, ok := m.ltt.Get(uint64(e.tid)); !ok || cur != e {
		return
	}
	// Unlink unconditionally: the tx record is garbage even if its cell is
	// momentarily detached from the generation lists.
	m.unlink(e.txCell)
	m.ltt.Delete(uint64(e.tid))
	// A committed entry with no cells left is referenced by nothing: its
	// COMMIT was durable, so no buffer lists it, and every cell that pointed
	// at it is garbage. Recycle it.
	onRetired := e.onRetired
	*e = lttEntry{state: txFree}
	m.txs.put(e)
	m.touchMem()
	if onRetired != nil {
		onRetired()
	}
}

// Quiesce seals every open buffer so that all appended records head to
// disk. Recovery drills call it before crashing "cleanly"; the paper's
// steady-state experiments never need it.
func (m *Manager) Quiesce() {
	defer m.leave(m.enter())
	for _, g := range m.gens {
		m.sealFill(g)
		m.sealPend(g)
	}
}
