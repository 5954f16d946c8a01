package core

import (
	"ellog/internal/logrec"
	"ellog/internal/sim"
)

// txState tracks a transaction through its life in the LTT.
type txState uint8

const (
	// txActive: BEGIN written, still executing.
	txActive txState = iota
	// txCommitting: COMMIT record appended to a buffer, not yet durable.
	txCommitting
	// txCommitted: COMMIT durable; entry lives on until every update is
	// flushed (its oid set drains to empty).
	txCommitted
	// txAborted: aborted or killed; the entry is removed immediately, so
	// this state is only ever observed transiently.
	txAborted
	// txPreparing: PREPARE record appended to a buffer, not yet durable
	// (cross-shard participant branch).
	txPreparing
	// txPrepared: PREPARE durable; the branch is in doubt — it cannot be
	// killed, flushed or retired until the coordinator's decision arrives
	// via ResolveCommit or ResolveAbort, so it pins its generation.
	txPrepared
	// txFree: the entry retired and sits on the manager's free list.
	txFree
)

// lttEntry is one logged transaction table entry (section 2.3): the cell
// for the transaction's most recent tx log record plus the cells of its
// non-garbage data log records, held the way the paper draws them — the
// entry points at a chain threaded through the cells themselves. Entries
// are keyed by tid in a chained hash table.
type lttEntry struct {
	tid    logrec.TxID
	state  txState
	txCell *cell
	// cells heads the chain (cell.txPrev/txNext) of the transaction's data
	// cells, one per object it updated, in ascending oid order: flush
	// requests are enqueued in chain order, which keeps runs deterministic.
	// A cell leaves the chain the moment its record becomes garbage; the
	// entry retires when nCells reaches zero.
	cells  *cell
	nCells int

	beginAt     sim.Time
	commitAppAt sim.Time // when the COMMIT record was appended (t3)
	onDurable   func()   // generator callback at t4
	onPrepared  func()   // 2PC overlay callback when the PREPARE is durable
	onRetired   func()   // 2PC overlay callback when the entry retires
	// pins counts remote participant branches that must retire before this
	// (coordinator) entry may: the DECIDE record has to stay readable in
	// the log until no crash can leave a participant in doubt about it.
	pins     int
	startGen int // generation receiving this tx's records (hints)
	killed   bool
}

// addCell links a data cell into the chain at its oid's place. Transactions
// update a handful of objects, so the walk is a few steps.
func (e *lttEntry) addCell(c *cell) {
	var prev *cell
	at := e.cells
	for at != nil && at.rec.Obj < c.rec.Obj {
		prev, at = at, at.txNext
	}
	c.txPrev, c.txNext = prev, at
	if prev == nil {
		e.cells = c
	} else {
		prev.txNext = c
	}
	if at != nil {
		at.txPrev = c
	}
	c.inTx = true
	e.nCells++
}

// removeCell unlinks a data cell from the chain.
func (e *lttEntry) removeCell(c *cell) {
	if c.txPrev == nil {
		e.cells = c.txNext
	} else {
		c.txPrev.txNext = c.txNext
	}
	if c.txNext != nil {
		c.txNext.txPrev = c.txPrev
	}
	c.txPrev, c.txNext = nil, nil
	c.inTx = false
	e.nCells--
}

// lotEntry is one logged object table entry (section 2.3): the cells for
// the object's non-garbage data log records — at most one for the most
// recently committed (but unflushed) update, and possibly several for
// uncommitted updates. Entries are keyed by oid in a chained hash table.
type lotEntry struct {
	oid logrec.OID
	// committed is the cell of the most recently committed, not yet
	// flushed update, if any.
	committed *cell
	// uncommitted heads the chain (cell.nextWriter) of the latest update of
	// each active transaction writing the object. The paper's workload gives
	// each object at most one active writer, so the chain is one cell long,
	// but the structure supports several (e.g. under optimistic CC).
	uncommitted *cell
	// superseded holds older committed records that must outlive their
	// successors until the newest version is flushed — only under
	// Params.BroadNonGarbage (no per-object version timestamps).
	superseded []*cell
	free       bool // on the manager's free list
}

func (e *lotEntry) empty() bool {
	return e.committed == nil && e.uncommitted == nil && len(e.superseded) == 0
}

// writerCell returns transaction tid's uncommitted update of the object, or
// nil.
func (e *lotEntry) writerCell(tid logrec.TxID) *cell {
	for c := e.uncommitted; c != nil; c = c.nextWriter {
		if c.rec.Tx == tid {
			return c
		}
	}
	return nil
}

func (e *lotEntry) addWriter(c *cell) {
	c.nextWriter = e.uncommitted
	e.uncommitted = c
}

func (e *lotEntry) removeWriter(c *cell) {
	for p := &e.uncommitted; *p != nil; p = &(*p).nextWriter {
		if *p == c {
			*p = c.nextWriter
			c.nextWriter = nil
			return
		}
	}
	panic("core: cell is not an uncommitted update of its object")
}

// freeList recycles the manager's per-record bookkeeping objects. Reuse is
// LIFO and the manager is single-threaded, so a run recycles the same
// objects in the same order every time; the list grows on demand and a
// manager that never frees anything never pays for it.
type freeList[T any] struct{ free []*T }

func (f *freeList[T]) get() *T {
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free = f.free[:n-1]
		return x
	}
	return new(T)
}

func (f *freeList[T]) put(x *T) { f.free = append(f.free, x) }
