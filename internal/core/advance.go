package core

import (
	"fmt"

	"ellog/internal/flushdisk"
	"ellog/internal/logrec"
	"ellog/internal/trace"
)

// advanceHead frees the block at generation g's head, dealing with every
// log record in it: garbage records are passed over, non-garbage records
// are forwarded to the next generation or — in the last generation —
// recirculated (or, with recirculation off, resolved by killing or force
// flushing). It reports whether the head moved; false means the head slot
// is not yet durable (the tail has caught up with in-flight writes) or the
// generation is empty, and the caller must make space some other way.
func (m *Manager) advanceHead(g *generation) bool {
	s := g.headSlot()
	if s == nil || s.state != slotDurable {
		return false
	}
	cells := g.list.oldestInSlot(s, m.takeCells())
	defer m.putCells(cells)
	if len(cells) == 0 {
		// Every record in the head block is garbage: conceptually thrown
		// in the garbage pail, physically just passed over.
		g.freeHeadSlot()
		m.usedGauges[g.idx].Set(m.at, float64(g.used))
		m.emit(trace.Event{Kind: trace.EvDiscard, Gen: g.idx})
		return true
	}
	if g.idx < m.lastGen() {
		m.forwardBatch(g, s, cells)
		return true
	}
	if !m.p.Recirculate {
		return m.clearLastHead(g)
	}
	m.recirculateHead(g, s, cells)
	return true
}

// forwardBatch moves the head block's non-garbage records to the next
// generation's tail and then "works backward from the head to gather
// enough other non-garbage log records to fill the buffer" destined for
// generation i+1, which is then written immediately (section 2.2).
func (m *Manager) forwardBatch(g *generation, s *slot, cells []*cell) {
	for _, c := range cells {
		g.list.remove(c)
	}
	g.freeHeadSlot()
	m.usedGauges[g.idx].Set(m.at, float64(g.used))
	target := g.idx + 1
	for _, c := range cells {
		m.move(g, c, s, target)
	}
	// Top off the outgoing buffer from the blocks now at the head, freeing
	// any block drained completely. The head cell is read afresh for every
	// move: a hybrid move regenerates further records, which can fill the
	// buffer and set off a cascade that kills transactions in g.
	tg := m.gens[target]
topOff:
	for m.tailFree(tg) > 0 && g.used > 0 {
		s2 := g.headSlot()
		if s2.state != slotDurable {
			break
		}
		for c := g.list.oldest(); c != nil && c.slot == s2; c = g.list.oldest() {
			if c.rec.Size > m.tailFree(tg) {
				break topOff // buffer cannot take the block's next record
			}
			g.list.remove(c)
			m.move(g, c, s2, target)
		}
		g.freeHeadSlot()
		m.usedGauges[g.idx].Set(m.at, float64(g.used))
	}
	m.emit(trace.Event{Kind: trace.EvForward, Gen: g.idx, N: len(cells)})
	// Forwarded records must be immediately written to disk.
	m.sealTail(tg)
}

// recirculateHead drains the last generation's head block into the pending
// recirculation buffer and frees the block. The drained records' stale
// copies keep them durable until the buffer is written at the tail.
func (m *Manager) recirculateHead(g *generation, s *slot, cells []*cell) {
	for _, c := range cells {
		g.list.remove(c)
	}
	g.freeHeadSlot()
	m.usedGauges[g.idx].Set(m.at, float64(g.used))
	for _, c := range cells {
		m.move(g, c, s, g.idx)
	}
	m.emit(trace.Event{Kind: trace.EvRecirculate, Gen: g.idx, N: len(cells)})
}

// move appends c, already taken off g's list, from block origin to the tail
// of generation target: forwarding when target is older than g,
// recirculation when it is g. Under ModeHybrid the rest of c's transaction
// follows it (regenerate).
func (m *Manager) move(g *generation, c *cell, origin *slot, target int) {
	tx := c.tx // c may die and be recycled inside appendTail
	m.appendTail(target, c, origin)
	m.countMove(g, target)
	if m.p.Mode == ModeHybrid {
		m.regenerate(g, tx, target)
	}
}

// countMove counts one record moved out of g's head region to target.
func (m *Manager) countMove(g *generation, target int) {
	if target == g.idx {
		m.recircRecs.Inc()
		return
	}
	m.forwardedRecs.Inc()
	g.epochOut++
}

// regenerate is the hybrid's forwarding rule. Its LM keeps a pointer to
// only the oldest record of each transaction, so when one of tx's records
// leaves generation g, "all of its log records must be regenerated and
// added to the tail of the next queue" (section 6): every other record of
// tx with a durable copy in g moves to the same tail, data records in
// ascending oid order and then the tx record. Only non-garbage records are
// rewritten; recovery never reads a garbage copy. Records still in an
// unwritten or in-flight buffer stay: they sit at a tail already and move
// when they reach a head. All of them leave g's list before the first is
// appended, so a cascade that kills tx or flushes its updates meanwhile
// finds them detached and marks them dead (unlink), and appendTail drops
// them. A retired entry has no cells left, so a tx that retired inside
// the caller's append has nothing to regenerate.
func (m *Manager) regenerate(g *generation, tx *lttEntry, target int) {
	cs := m.takeCells()
	for c := tx.cells; c != nil; c = c.txNext {
		if durableIn(c, g) {
			cs = append(cs, c)
		}
	}
	if durableIn(tx.txCell, g) {
		cs = append(cs, tx.txCell)
	}
	for _, c := range cs {
		g.list.remove(c)
	}
	for _, c := range cs {
		m.appendTail(target, c, c.slot)
		m.countMove(g, target)
	}
	m.putCells(cs)
}

// durableIn reports whether c is listed in generation g with its record in
// a durable block there.
func durableIn(c *cell, g *generation) bool {
	return c != nil && c.inList && c.gen == g.idx && c.slot != nil && c.slot.state == slotDurable
}

// clearLastHead handles a non-garbage record reaching the head of the last
// generation with recirculation off: an active transaction is killed (the
// FW discipline and the paper's recirculation-off EL experiments), a
// committed-but-unflushed update is force flushed (random I/O), and a
// committed transaction's tx record is resolved by flushing its remaining
// updates. The hybrid resolves a transaction whole, so a committed update
// there flushes all of its transaction's. Records of committing (not yet
// durable) transactions cannot be resolved synchronously, in which case the
// head stays put and the caller falls back to other victims.
func (m *Manager) clearLastHead(g *generation) bool {
	s := g.headSlot()
	buf := m.takeCells()
	defer func() { m.putCells(buf) }()
	for {
		cs := g.list.oldestInSlot(s, buf)
		buf = cs
		if len(cs) == 0 {
			g.freeHeadSlot()
			m.usedGauges[g.idx].Set(m.at, float64(g.used))
			return true
		}
		c := cs[0]
		switch {
		case c.rec.Kind == logrec.KindData && c.committed && m.p.Mode == ModeHybrid:
			m.forceFlushTx(c.tx)
		case c.rec.Kind == logrec.KindData && c.committed:
			m.forceFlushCell(c)
		case c.rec.Kind == logrec.KindData || c.rec.Kind == logrec.KindBegin:
			if c.tx.state != txActive {
				return false // committing; resolves within a block write
			}
			g.epochKills++
			m.dropTx(c.tx, true)
		case (c.rec.Kind == logrec.KindCommit || c.rec.Kind == logrec.KindDecide) && c.tx.state == txCommitted:
			// Tx record of a committed transaction with unflushed updates:
			// flush them all so the entry retires and the record becomes
			// garbage.
			m.forceFlushTx(c.tx)
			if c.inList {
				// A pinned DECIDE record (remote branches still in doubt)
				// survives the flush and cannot leave the log yet.
				return false
			}
		default:
			// Commit or prepare still in flight, or an in-doubt branch's
			// record: none can be resolved synchronously.
			return false
		}
	}
}

// killVictim sacrifices work to make space in generation g when its head
// cannot advance: the oldest active transaction with a record in g is
// killed ("System R's solution is to simply kill off excessively lengthy
// transactions"); failing that, the oldest committed-but-unflushed update
// is force flushed. It reports whether anything was freed.
func (m *Manager) killVictim(g *generation) bool {
	var victim *cell
	g.list.walkOldestFirst(func(c *cell) bool {
		switch {
		case c.tx.state == txActive:
			victim = c
			return false
		case c.rec.Kind == logrec.KindData && c.committed:
			victim = c
			return false
		case (c.rec.Kind == logrec.KindCommit || c.rec.Kind == logrec.KindDecide) && c.tx.state == txCommitted:
			// Only worth sacrificing if a flush can free something: a
			// pinned DECIDE with no unflushed updates stays until unpinned.
			if c.tx.nCells > 0 {
				victim = c
				return false
			}
		}
		return true
	})
	if victim == nil {
		return false
	}
	switch {
	case victim.tx.state == txActive:
		g.epochKills++
		m.dropTx(victim.tx, true)
	case victim.rec.Kind == logrec.KindData:
		m.forceFlushCell(victim)
	default:
		m.forceFlushTx(victim.tx)
	}
	return true
}

// forceFlushCell flushes one committed update out of band (random I/O).
// Under BroadNonGarbage the cell may be a superseded older version; only
// flushing the object's newest committed version clears the whole chain,
// so the force flush targets that.
func (m *Manager) forceFlushCell(c *cell) {
	if !c.committed || c.rec.Kind != logrec.KindData {
		panic(fmt.Sprintf("core: force flush of non-committed record %v", c.rec))
	}
	target := c
	if le := c.obj; le.committed != nil && le.committed != c {
		target = le.committed
	}
	// ForceFlush synchronously invokes the manager's Flushed callback,
	// which disposes the cell (and any superseded chain behind it).
	m.emit(trace.Event{Kind: trace.EvForceFlush, Gen: target.gen, Obj: target.rec.Obj, LSN: target.rec.LSN})
	m.flush.ForceFlush(flushdisk.Request{Obj: target.rec.Obj, LSN: target.rec.LSN, Val: target.rec.Val, Tx: target.rec.Tx})
}

// forceFlushTx flushes every remaining update of a committed transaction,
// retiring its LTT entry. Each force flush disposes the cell at the head of
// the chain — directly, or under BroadNonGarbage as part of the superseded
// chain behind the object's newest version — so the loop ends, in ascending
// oid order, with the chain empty and the entry retired from inside the
// last flush completion (unless pinned).
func (m *Manager) forceFlushTx(e *lttEntry) {
	for e.state == txCommitted && e.cells != nil {
		m.forceFlushCell(e.cells)
	}
	m.maybeRetire(e)
}
