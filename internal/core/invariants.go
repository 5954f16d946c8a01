package core

import (
	"fmt"

	"ellog/internal/logrec"
)

// CheckInvariants walks the manager's entire bookkeeping and verifies the
// structural invariants of section 2: cells, generation lists, LOT and LTT
// cross-references, slot accounting and refugee counts — and that nothing
// still in use has been recycled: no cell reachable from a generation list,
// the LOT or the LTT, and no record reachable from such a cell or from a
// block buffer that has not finished its write, is on a free list. It
// returns the first violation found, or nil. Tests call it at checkpoints throughout
// simulations; it is not part of the hot path.
func (m *Manager) CheckInvariants() error {
	// 1. Generation ring accounting.
	for _, g := range m.gens {
		occupied := 0
		for _, s := range g.ring {
			if s.state != slotFree {
				occupied++
			}
			if s.refugees < 0 {
				return fmt.Errorf("gen %d: negative refugees on slot %d", g.idx, s.id)
			}
		}
		if occupied != g.used {
			return fmt.Errorf("gen %d: used=%d but %d slots occupied", g.idx, g.used, occupied)
		}
		if g.used > 0 {
			// Occupied slots must be exactly the circular range [head, tail).
			for i := 0; i < len(g.ring); i++ {
				inRange := false
				for j, idx := 0, g.head; j < g.used; j++ {
					if i == idx {
						inRange = true
						break
					}
					idx = (idx + 1) % len(g.ring)
				}
				if inRange != (g.ring[i].state != slotFree) {
					return fmt.Errorf("gen %d: slot index %d state %v disagrees with [head,tail) occupancy",
						g.idx, i, g.ring[i].state)
				}
			}
		}
	}

	// 2. Cell lists: circular integrity, h is oldest, cells carry the
	// generation they are listed in.
	cellsSeen := make(map[*cell]int)
	for _, g := range m.gens {
		if g.list.n == 0 {
			if g.list.h != nil {
				return fmt.Errorf("gen %d: empty list with non-nil head", g.idx)
			}
			continue
		}
		c := g.list.h
		for i := 0; i < g.list.n; i++ {
			if err := inUse(c); err != nil {
				return fmt.Errorf("gen %d: listed %v", g.idx, err)
			}
			if !c.inList {
				return fmt.Errorf("gen %d: listed cell %v not marked inList", g.idx, c.rec)
			}
			if c.gen != g.idx {
				return fmt.Errorf("gen %d: listed cell %v claims gen %d", g.idx, c.rec, c.gen)
			}
			if c.left.right != c || c.right.left != c {
				return fmt.Errorf("gen %d: broken links at cell %v", g.idx, c.rec)
			}
			if _, dup := cellsSeen[c]; dup {
				return fmt.Errorf("cell %v appears in two lists", c.rec)
			}
			cellsSeen[c] = g.idx
			if c.slot != nil && c.slot.state == slotFree {
				return fmt.Errorf("gen %d: live cell %v points at a free slot", g.idx, c.rec)
			}
			c = c.left
		}
		if c != g.list.h {
			return fmt.Errorf("gen %d: list does not close after %d cells", g.idx, g.list.n)
		}
	}

	// 3. LOT entries: every referenced cell is live and cross-linked.
	lotCells := 0
	reachable := make(map[*cell]bool)
	var lotErr error
	m.lot.Range(func(key uint64, le *lotEntry) bool {
		oid := logrec.OID(key)
		if le.free || le.oid != oid {
			lotErr = fmt.Errorf("LOT entry %d is on the free list or misfiled (oid %d, free %v)", oid, le.oid, le.free)
			return false
		}
		if le.empty() {
			lotErr = fmt.Errorf("LOT entry %d is empty but present", oid)
			return false
		}
		check := func(c *cell, committed bool) error {
			if err := inUse(c); err != nil {
				return fmt.Errorf("LOT %d: %v", oid, err)
			}
			if !c.inList {
				return fmt.Errorf("LOT %d: cell %v not in any list", oid, c.rec)
			}
			if c.rec.Kind != logrec.KindData || c.rec.Obj != oid {
				return fmt.Errorf("LOT %d: cell holds foreign record %v", oid, c.rec)
			}
			if c.committed != committed {
				return fmt.Errorf("LOT %d: cell %v committed flag %v, want %v", oid, c.rec, c.committed, committed)
			}
			if c.obj != le {
				return fmt.Errorf("LOT %d: cell %v has wrong owner", oid, c.rec)
			}
			if !c.inTx || c.tx.tid != c.rec.Tx {
				return fmt.Errorf("LOT %d: cell %v is not on the chain of its transaction", oid, c.rec)
			}
			lotCells++
			reachable[c] = true
			return nil
		}
		if le.committed != nil {
			if lotErr = check(le.committed, true); lotErr != nil {
				return false
			}
			if le.committed.tx.state != txCommitted {
				lotErr = fmt.Errorf("LOT %d: committed cell from %v tx", oid, le.committed.tx.state)
				return false
			}
		}
		writers := make(map[logrec.TxID]bool)
		for c := le.uncommitted; c != nil; c = c.nextWriter {
			if lotErr = check(c, false); lotErr != nil {
				return false
			}
			if writers[c.rec.Tx] {
				lotErr = fmt.Errorf("LOT %d: two uncommitted cells for tx %d", oid, c.rec.Tx)
				return false
			}
			writers[c.rec.Tx] = true
		}
		for _, c := range le.superseded {
			if lotErr = check(c, true); lotErr != nil {
				return false
			}
			if le.committed == nil {
				lotErr = fmt.Errorf("LOT %d: superseded chain with no committed successor", oid)
				return false
			}
		}
		return true
	})
	if lotErr != nil {
		return lotErr
	}

	// 4. LTT entries: tx cells live (unless riding in an unsealed buffer),
	// chains well formed — ascending by oid, every cell the entry's own and
	// held by its object's LOT entry.
	lttCells, chained := 0, 0
	var lttErr error
	m.ltt.Range(func(key uint64, e *lttEntry) bool {
		if e.state == txFree || uint64(e.tid) != key {
			lttErr = fmt.Errorf("LTT %d: entry is on the free list or misfiled (tid %d, state %d)", key, e.tid, e.state)
			return false
		}
		if e.txCell == nil {
			lttErr = fmt.Errorf("LTT %d: no tx cell", e.tid)
			return false
		}
		if err := inUse(e.txCell); err != nil {
			lttErr = fmt.Errorf("LTT %d: tx %v", e.tid, err)
			return false
		}
		if e.txCell.inList {
			lttCells++
		}
		if e.txCell.tx != e {
			lttErr = fmt.Errorf("LTT %d: tx cell owner mismatch", e.tid)
			return false
		}
		reachable[e.txCell] = true
		n := 0
		var prev *cell
		for c := e.cells; c != nil; prev, c = c, c.txNext {
			n++
			if c.tx != e || !c.inTx || c.txPrev != prev {
				lttErr = fmt.Errorf("LTT %d: chain broken at cell %v", e.tid, c.rec)
				return false
			}
			if prev != nil && prev.rec.Obj >= c.rec.Obj {
				lttErr = fmt.Errorf("LTT %d: chain out of oid order at %v", e.tid, c.rec)
				return false
			}
			if !reachable[c] {
				lttErr = fmt.Errorf("LTT %d: oid %d has no cell owned by the tx in the LOT", e.tid, c.rec.Obj)
				return false
			}
		}
		if n != e.nCells {
			lttErr = fmt.Errorf("LTT %d: chain holds %d cells, entry counts %d", e.tid, n, e.nCells)
			return false
		}
		chained += n
		return true
	})
	if lttErr != nil {
		return lttErr
	}
	if chained != lotCells {
		return fmt.Errorf("%d cells in the LOT but %d on LTT chains", lotCells, chained)
	}

	// 5. Every listed cell is reachable from LOT or LTT — "at any given
	// time, the cells associated with the LOT and LTT entries point to all
	// non-garbage records in the log" (section 2.3).
	var orphan error
	total := 0
	for _, g := range m.gens {
		total += g.list.len()
		g.list.walkOldestFirst(func(c *cell) bool {
			if !reachable[c] {
				orphan = fmt.Errorf("gen %d: listed cell %v (tx state %d, committed=%v) unreachable from LOT/LTT",
					g.idx, c.rec, c.tx.state, c.committed)
				return false
			}
			return true
		})
	}
	if orphan != nil {
		return orphan
	}
	if total != lotCells+lttCells {
		return fmt.Errorf("%d cells listed but %d reachable from LOT (%d) + LTT (%d)",
			total, lotCells+lttCells, lotCells, lttCells)
	}

	// 6. Record conservation: every record that ever entered the log is
	// either live (a cell reachable from LOT/LTT, listed or momentarily
	// detached in an unwritten buffer) or was counted as garbage — the
	// balance behind the Garbage/AppendedRecs bandwidth accounting.
	live := uint64(len(reachable))
	if m.appendedRecs.Count() != m.garbaged.Count()+live {
		return fmt.Errorf("record accounting drifted: %d appended != %d garbage + %d live",
			m.appendedRecs.Count(), m.garbaged.Count(), live)
	}

	// 7. Recycling. Checks 2-4 established that no cell in use, nor its
	// record, is on a free list. The same must hold for the records of every
	// buffer that still has a write to finish — filling, in flight or
	// awaiting a retry — and, from the other side, everything that is on a
	// free list must still carry the mark it was recycled with: a cell or
	// record written through a stale pointer shows up here.
	pooled := make(map[*buffer]bool, len(m.bufPool))
	for _, b := range m.bufPool {
		pooled[b] = true
	}
	for _, b := range m.allBufs {
		if pooled[b] {
			if len(b.recs) != 0 || len(b.cells) != 0 {
				return fmt.Errorf("pooled buffer still holds %d records, %d cells", len(b.recs), len(b.cells))
			}
			continue
		}
		if len(b.cells) != len(b.recs) {
			return fmt.Errorf("buffer pairs %d cells with %d records", len(b.cells), len(b.recs))
		}
		for i, r := range b.recs {
			if r.LSN == 0 {
				return fmt.Errorf("unwritten buffer holds a recycled record (index %d of %d)", i, len(b.recs))
			}
			if c := b.cells[i]; c.rec == r && c.buf != b {
				return fmt.Errorf("cell of %v does not know the buffer still holding its record", r)
			}
		}
	}
	for _, c := range m.cells.free {
		if c.gen != -1 || c.rec != nil || c.inList || c.inTx {
			return fmt.Errorf("cell on the free list is in use: gen %d, record %v", c.gen, c.rec)
		}
		if reachable[c] {
			return fmt.Errorf("cell on the free list is reachable from the LOT/LTT")
		}
	}
	for _, le := range m.lots.free {
		if !le.free || !le.empty() {
			return fmt.Errorf("LOT entry on the free list is in use (oid %d)", le.oid)
		}
	}
	for _, e := range m.txs.free {
		if e.state != txFree || e.cells != nil || e.txCell != nil {
			return fmt.Errorf("LTT entry on the free list is in use (tid %d, state %d)", e.tid, e.state)
		}
	}
	if !m.recs.Zeroed() {
		return fmt.Errorf("a record on the free list was written after it was recycled")
	}
	return nil
}

// inUse reports an error if a cell that bookkeeping still points at, or its
// record, has been recycled.
func inUse(c *cell) error {
	switch {
	case c.gen < 0 || c.rec == nil:
		return fmt.Errorf("cell is on the free list")
	case c.rec.LSN == 0:
		return fmt.Errorf("cell holds a recycled record")
	case c.dead:
		return fmt.Errorf("cell of %v is marked dead", c.rec)
	}
	return nil
}
