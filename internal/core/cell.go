package core

import (
	"ellog/internal/logrec"
	"ellog/internal/sim"
)

// cell is the in-memory handle for one non-garbage log record (section
// 2.1). It points to the record's block in the log (via the slot) and is
// linked into its generation's circular doubly linked list. A cell is
// disposed the moment its record becomes garbage; "after becoming a garbage
// record, a log record cannot switch back to become non-garbage again".
//
// Pointer resolution is deliberately coarse: "a cell indicates merely the
// block to which its record belongs" (section 2.2). While a record sits in
// an unwritten recirculation buffer its slot is nil — conceptually it
// belongs to whichever block is eventually written at the tail.
type cell struct {
	left, right *cell
	gen         int   // generation whose list holds the cell; -1 on the free list
	slot        *slot // block holding the record; nil while pending in a slotless buffer
	rec         *logrec.Record
	// buf is the block buffer carrying rec that has not finished with it —
	// filling, in flight or awaiting a retry — and nil once that block is
	// durable. It decides who recycles rec: the buffer when its write ends,
	// or the cell when it dies with no buffer holding the record.
	buf *buffer
	// origin is the block holding rec's only durable copy while buf is set
	// (the block it was moved out of); nil for a record new to the log.
	origin *slot

	obj        *lotEntry // owning LOT entry (data records only)
	tx         *lttEntry // owning transaction
	nextWriter *cell     // LOT chain: another transaction's uncommitted update of obj
	txPrev     *cell     // LTT chain: tx's data cells, ascending by oid
	txNext     *cell
	inTx       bool // linked into tx's chain
	committed  bool // data record of a committed transaction, awaiting flush
	inList     bool
	dead       bool     // record became garbage while the cell was detached (see unlink)
	arrived    sim.Time // when the cell entered its current generation

	// Steal-extension flags: the uncommitted update was queued for / has
	// completed a stolen flush; cleanQueued marks the pending commit-time
	// write that clears the stolen marker.
	flushed      bool
	stolenQueued bool
	cleanQueued  bool
}

// cellList is one generation's circular doubly linked list of cells. h
// points to the cell for the non-garbage record nearest the head (the
// oldest). Following h.right reaches the cell nearest the tail (the
// newest) — the paper's substitute for a tail pointer. Moving left from h
// walks from oldest towards newest.
type cellList struct {
	h *cell
	n int
}

// pushNewest links c in as the newest cell (nearest the tail).
func (l *cellList) pushNewest(c *cell) {
	if c.inList {
		panic("core: cell already in a list")
	}
	c.inList = true
	l.n++
	if l.h == nil {
		l.h = c
		c.left = c
		c.right = c
		return
	}
	newest := l.h.right
	c.right = newest
	c.left = l.h
	newest.left = c
	l.h.right = c
}

// remove unlinks c. If c was the head cell, h moves to the next oldest.
func (l *cellList) remove(c *cell) {
	if !c.inList {
		panic("core: removing cell not in a list")
	}
	c.inList = false
	l.n--
	if l.n == 0 {
		l.h = nil
		c.left, c.right = nil, nil
		return
	}
	if l.h == c {
		l.h = c.left // next oldest
	}
	c.left.right = c.right
	c.right.left = c.left
	c.left, c.right = nil, nil
}

// oldest returns the head-most cell, or nil when the list is empty.
func (l *cellList) oldest() *cell { return l.h }

// len reports the number of cells.
func (l *cellList) len() int { return l.n }

// oldestInSlot collects, oldest first, the consecutive head-side cells
// residing in the given slot, appending onto dst (pass a pooled scratch —
// see Manager.takeCells — to keep the advance path allocation-free).
// Records enter a generation in block order, so a block's cells are
// contiguous at the old end of the list.
func (l *cellList) oldestInSlot(s *slot, dst []*cell) []*cell {
	out := dst[:0]
	c := l.h
	for i := 0; i < l.n; i++ {
		if c.slot != s {
			break
		}
		out = append(out, c)
		c = c.left
	}
	return out
}

// walkOldestFirst visits every cell from oldest to newest until fn returns
// false. The list must not be mutated during the walk.
func (l *cellList) walkOldestFirst(fn func(*cell) bool) {
	c := l.h
	for i := 0; i < l.n; i++ {
		if !fn(c) {
			return
		}
		c = c.left
	}
}
