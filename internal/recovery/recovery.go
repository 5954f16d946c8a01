// Package recovery implements crash recovery for an ephemeral log. The
// paper defers the algorithm to its companion report ([9], Keen, "Logging
// and Recovery in a Highly Concurrent Stable Object Store") but states the
// key properties: all log records are timestamped so the recovery manager
// can re-establish temporal order despite recirculation, and because EL
// keeps the log small enough to read entirely into main memory, "we can
// read the entire log into memory and perform recovery with a single pass"
// (section 4) — unlike the traditional two-pass (undo, redo) method.
//
// The single disk pass implemented here reads every durable block of the
// log area — including blocks the logging manager had logically freed but
// not yet overwritten, whose stale contents are harmless — into memory.
// Resolution is then pure computation: winners are transactions with a
// durable COMMIT record (REDO-only logging leaves nothing to undo), and
// for each object the highest-LSN data record written by a winner is
// applied to the stable database, which itself ignores anything older than
// what it already holds.
package recovery

import (
	"fmt"
	"sort"

	"ellog/internal/blockdev"
	"ellog/internal/logrec"
	"ellog/internal/sim"
	"ellog/internal/statedb"
)

// DefaultBlockRead is the modeled time to read one log block during
// recovery; symmetric with the paper's 15 ms write transfer. Sequential
// reading of a few dozen blocks at this rate supports the paper's
// "recovery in less than a second may be feasible".
const DefaultBlockRead = 15 * sim.Millisecond

// Result describes one recovery pass.
type Result struct {
	BlocksRead  int
	BytesRead   int
	RecordsRead int
	Winners     int // distinct committed transactions seen in the log
	Losers      int // distinct transactions seen without a durable COMMIT
	Applied     int // updates newer than the stable database
	Stale       int // updates the stable database already covered
	Undone      int // stolen loser versions rolled back (UNDO/REDO extension)
	// Torn-write detection (per-block and per-record checksums): a block
	// that fails its checksum is salvaged — the longest prefix of records
	// with valid checksums survives, the rest is discarded as the lost
	// suffix of a torn or corrupt write.
	TornBlocks   int // blocks whose checksum failed (torn or corrupt)
	SalvagedRecs int // records recovered from torn blocks' valid prefixes
	// WinnerTxs lists the committed transactions found in the log, in
	// ascending TxID order — crash-campaign harnesses compare it against
	// the set of acknowledged commits.
	WinnerTxs []logrec.TxID
	// InDoubt lists prepared transactions with no local decision, in
	// ascending TxID order: 2PC branches whose fate only the coordinator
	// shard's log can settle (commit if it holds a durable DECIDE,
	// presumed abort otherwise). Their updates are excluded from this
	// pass's redo; the resolution pass applies the committed ones.
	InDoubt []InDoubtTx
	// EstimatedTime models the sequential single-pass read of the log:
	// BlocksRead x the per-block read time.
	EstimatedTime sim.Time
}

// InDoubtWrite is one object update by an in-doubt prepared transaction —
// the branch's latest durable record for the object.
type InDoubtWrite struct {
	Obj logrec.OID
	LSN logrec.LSN
	Val uint64
}

// InDoubtTx is one prepared-but-undecided transaction surfaced by a
// shard's recovery pass. Writes holds the latest durable update per
// object, in ascending oid order, so resolution output is deterministic.
type InDoubtTx struct {
	Tx     logrec.TxID
	Writes []InDoubtWrite
}

// Image is a crash image of the log area: a single deterministic pass over
// every block that has durable contents, in allocation order. The simulated
// *blockdev.Device is one implementation; internal/realdev's on-disk file
// image is the other, which is how the same scan/salvage pass recovers real
// files.
type Image interface {
	RangeDurable(fn func(id blockdev.BlockID, gen int, data []byte) bool)
}

// Recover performs single-pass redo recovery: it reads the crash image
// from the log area and returns a recovered copy of the stable database
// (the input database is not modified).
func Recover(dev Image, db *statedb.DB, blockRead sim.Time) (*statedb.DB, Result, error) {
	if blockRead <= 0 {
		blockRead = DefaultBlockRead
	}
	var res Result

	winners := make(map[logrec.TxID]bool)
	prepared := make(map[logrec.TxID]bool)
	seen := make(map[logrec.TxID]bool)
	var data []*logrec.Record

	// The single pass over disk: everything lands in memory. A block that
	// fails its checksum — torn by a crash mid-write or silently corrupted —
	// is not trusted wholesale: its longest prefix of checksum-valid records
	// is salvaged and the rest discarded. A transaction whose COMMIT fell in
	// a discarded suffix simply has no durable commit and recovers as a
	// loser, which is exactly the group-commit contract: it was never
	// acknowledged (the block's completion never fired).
	dev.RangeDurable(func(id blockdev.BlockID, gen int, blk []byte) bool {
		res.BlocksRead++
		res.BytesRead += len(blk)
		recs, intact := logrec.SalvageBlock(blk)
		if !intact {
			res.TornBlocks++
			res.SalvagedRecs += len(recs)
		}
		for _, r := range recs {
			res.RecordsRead++
			seen[r.Tx] = true
			switch r.Kind {
			case logrec.KindCommit, logrec.KindDecide:
				// DECIDE is the coordinator shard's COMMIT: a durable one
				// commits the local branch (and, globally, the whole
				// cross-shard transaction — RecoverAll's resolution pass
				// consults it on behalf of the other shards).
				winners[r.Tx] = true
			case logrec.KindPrepare:
				prepared[r.Tx] = true
			case logrec.KindData:
				data = append(data, r)
			}
		}
		return true
	})
	res.Winners = len(winners)
	res.Losers = len(seen) - len(winners)
	res.WinnerTxs = make([]logrec.TxID, 0, len(winners))
	for tx := range winners {
		res.WinnerTxs = append(res.WinnerTxs, tx)
	}
	sort.Slice(res.WinnerTxs, func(i, j int) bool { return res.WinnerTxs[i] < res.WinnerTxs[j] })

	// In-memory resolution: redo each object's latest committed update.
	type upd struct {
		lsn logrec.LSN
		val uint64
		tx  logrec.TxID
	}
	winnerLatest := make(map[logrec.OID]upd)
	// loserRecs keeps one record per (object, loser transaction): its
	// before-image is the pre-transaction committed state, needed to UNDO
	// versions that a steal policy flushed before the crash. Every such
	// flushed-uncommitted record is non-garbage until its transaction
	// resolves, so the log is guaranteed to hold one.
	type objTx struct {
		obj logrec.OID
		tx  logrec.TxID
	}
	loserRecs := make(map[objTx]*logrec.Record)
	// inDoubtLatest tracks the latest update per object of each prepared-
	// but-undecided transaction; the resolution pass redoes the committed
	// ones, so this pass neither redoes nor undoes them beyond the stolen
	// rollback below (which a later resolution commit re-applies, its
	// record LSNs being newer than any before-image).
	inDoubtLatest := make(map[logrec.TxID]map[logrec.OID]upd)
	for _, r := range data {
		if !winners[r.Tx] {
			loserRecs[objTx{r.Obj, r.Tx}] = r
			if prepared[r.Tx] {
				w := inDoubtLatest[r.Tx]
				if w == nil {
					w = make(map[logrec.OID]upd)
					inDoubtLatest[r.Tx] = w
				}
				if cur, ok := w[r.Obj]; !ok || r.LSN > cur.lsn {
					w[r.Obj] = upd{lsn: r.LSN, val: r.Val, tx: r.Tx}
				}
			}
			continue // loser, in doubt, or still active at crash: no redo
		}
		if cur, ok := winnerLatest[r.Obj]; !ok || r.LSN > cur.lsn {
			winnerLatest[r.Obj] = upd{lsn: r.LSN, val: r.Val, tx: r.Tx}
		}
	}
	inDoubtTxs := make([]logrec.TxID, 0, len(prepared))
	for tx := range prepared {
		if !winners[tx] {
			inDoubtTxs = append(inDoubtTxs, tx)
		}
	}
	sort.Slice(inDoubtTxs, func(i, j int) bool { return inDoubtTxs[i] < inDoubtTxs[j] })
	res.InDoubt = make([]InDoubtTx, 0, len(inDoubtTxs))
	for _, tx := range inDoubtTxs {
		idt := InDoubtTx{Tx: tx}
		objs := make([]logrec.OID, 0, len(inDoubtLatest[tx]))
		for obj := range inDoubtLatest[tx] {
			objs = append(objs, obj)
		}
		sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
		for _, obj := range objs {
			u := inDoubtLatest[tx][obj]
			idt.Writes = append(idt.Writes, InDoubtWrite{Obj: obj, LSN: u.lsn, Val: u.val})
		}
		res.InDoubt = append(res.InDoubt, idt)
	}
	recovered := db.Clone()
	// UNDO pass (steal extension): a version explicitly marked stolen was
	// flushed before its transaction committed. If the writer's COMMIT is
	// not in the log, the version is rolled back to the before-image
	// carried by the writer's log record; stolen records stay non-garbage
	// until commit-time cleaning, so that record is guaranteed readable.
	var undoErr error
	db.Range(func(obj logrec.OID, v statedb.Version) bool {
		if !v.Stolen || winners[v.Tx] {
			return true
		}
		r, ok := loserRecs[objTx{obj, v.Tx}]
		if !ok {
			undoErr = fmt.Errorf("recovery: stolen version of object %d (tx %d) has no log record to undo with", obj, v.Tx)
			return false
		}
		recovered.ForceSet(obj, statedb.Version{LSN: r.PrevLSN, Val: r.PrevVal})
		res.Undone++
		return true
	})
	if undoErr != nil {
		return nil, res, undoErr
	}
	// REDO pass.
	for obj, u := range winnerLatest {
		if recovered.Apply(obj, u.lsn, u.val, u.tx) {
			res.Applied++
		} else {
			res.Stale++
		}
	}
	res.EstimatedTime = sim.Time(res.BlocksRead) * blockRead
	return recovered, res, nil
}

// VerifyOracle checks a recovered database against ground truth: the
// latest durably-committed LSN per object (as tracked by the workload
// generator). It returns the discrepancy with the lowest object id — the
// same one on every call, whatever order the maps iterate in — or nil if
// the recovered state is exactly the committed state.
func VerifyOracle(recovered *statedb.DB, oracle map[logrec.OID]logrec.LSN) error {
	var first *MismatchError
	note := func(e *MismatchError) {
		if first == nil || e.Obj < first.Obj {
			first = e
		}
	}
	for oid, lsn := range oracle {
		if v, ok := recovered.Get(oid); !ok || v.LSN != lsn {
			note(&MismatchError{Obj: oid, Want: lsn, Got: v.LSN, Missing: !ok})
		}
	}
	recovered.Range(func(oid logrec.OID, v statedb.Version) bool {
		if _, ok := oracle[oid]; !ok {
			note(&MismatchError{Obj: oid, Got: v.LSN, Extra: true})
		}
		return true
	})
	if first == nil {
		return nil
	}
	return first
}

// MismatchError reports a recovery discrepancy.
type MismatchError struct {
	Obj     logrec.OID
	Want    logrec.LSN
	Got     logrec.LSN
	Missing bool // object absent from the recovered database
	Extra   bool // object recovered but never durably committed
}

func (e *MismatchError) Error() string {
	switch {
	case e.Missing:
		return fmt.Sprintf("recovery: committed update lost: object %d, want LSN %d", e.Obj, e.Want)
	case e.Extra:
		return fmt.Sprintf("recovery: uncommitted state leaked: object %d at LSN %d", e.Obj, e.Got)
	default:
		return fmt.Sprintf("recovery: object %d recovered at LSN %d, committed LSN %d", e.Obj, e.Got, e.Want)
	}
}
