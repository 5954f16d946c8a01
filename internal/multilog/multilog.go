// Package multilog composes ephemeral logging across a shared-nothing
// highly concurrent system — the setting the paper's introduction
// motivates: "the advent of highly concurrent systems consisting of
// hundreds or thousands of processors has offered much greater processing
// power, but has made synchronization much more difficult. Traditionally,
// checkpointing has been a part of all DBMS designs [and] relies on some
// form of synchronization of activity in the entire system."
//
// Because EL needs no checkpoints, shards need no cross-log
// synchronization for local work: each shard runs its own logging manager
// over its own generations, flush drives and slice of the object space
// (range partitioning, as in the parallel database systems of the paper's
// reference [3], DeWitt & Gray). Every shard is one logical process of a
// sim.ParallelEngine (pdes.go). Transactions spanning two shards run
// two-phase commit in the log itself, as messages between the logical
// processes (pdes_cross.go): the participant logs a PREPARE record, the
// coordinator logs the DECIDE record, and no shard ever needs a
// synchronized checkpoint — the decision lives in a log that is always
// small enough to replay in full. Crash recovery replays each shard's own
// small log, then resolves in-doubt prepared branches against the
// coordinator logs' decision records.
//
// Coordinates. A shard works on its local object range [0, width), where
// width is its flush array's object count (Flush.NumObjects); local oid o
// of shard s is global oid s*width + o. Recovered states and the oracle
// are joined in global coordinates.
package multilog

import (
	"fmt"

	"ellog/internal/core"
	"ellog/internal/logrec"
	"ellog/internal/recovery"
	"ellog/internal/sim"
	"ellog/internal/statedb"
)

// globalOID lifts shard s's local oid to global coordinates.
func globalOID(s int, width uint64, local logrec.OID) logrec.OID {
	return logrec.OID(uint64(s)*width + uint64(local))
}

// RecoveryReport describes a whole-machine recovery: the per-shard replay
// passes plus the cross-shard resolution pass.
type RecoveryReport struct {
	Per []recovery.Result // one per shard, in shard order
	// ParallelTime is the slowest shard's replay: shards share nothing, so
	// wall time is the maximum, not the sum — the payoff of checkpoint-free
	// logs.
	ParallelTime sim.Time
	// SerialTime is the sum over shards — what a single log reader would
	// pay.
	SerialTime sim.Time
	// 2PC resolution: in-doubt prepared branches surfaced by the replay
	// passes, and how the coordinator logs settled them.
	InDoubt        int
	ResolvedCommit int // a coordinator shard held a durable DECIDE
	ResolvedAbort  int // no durable decision anywhere: presumed abort
}

// RecoverAll recovers every shard independently, resolves in-doubt
// prepared transactions against the union of decision records, and merges
// the shards' recovered states into one database in global object
// coordinates.
func RecoverAll(parts []*core.Setup, blockRead sim.Time) (*statedb.DB, RecoveryReport, error) {
	recs, report, winners, err := recoverParts(parts, blockRead)
	if err != nil {
		return nil, report, err
	}
	merged := statedb.New()
	for i, rec := range recs {
		resolveInDoubt(rec, &report, report.Per[i], winners)
		if err := lift(merged, rec, i, parts[i].Flush.NumObjects()); err != nil {
			return nil, report, err
		}
	}
	return merged, report, nil
}

// RecoverShard recovers a single crashed shard against the other shards'
// (intact) logs: shard i's image is replayed, and its in-doubt prepared
// branches are resolved by consulting every shard's durable decision
// records — the coordinator of a cross-shard transaction may be any of
// them. The recovered state is returned in GLOBAL object coordinates,
// covering only shard i's range.
func RecoverShard(parts []*core.Setup, i int, blockRead sim.Time) (*statedb.DB, RecoveryReport, error) {
	if i < 0 || i >= len(parts) {
		return nil, RecoveryReport{}, fmt.Errorf("multilog: recover of shard %d out of range (system has %d)", i, len(parts))
	}
	recs, report, winners, err := recoverParts(parts, blockRead)
	if err != nil {
		return nil, report, err
	}
	// Only shard i crashed: its replay is the recovery cost, and only its
	// in-doubt branches need resolution.
	report.ParallelTime = report.Per[i].EstimatedTime
	report.SerialTime = report.Per[i].EstimatedTime
	resolveInDoubt(recs[i], &report, report.Per[i], winners)
	out := statedb.New()
	if err := lift(out, recs[i], i, parts[i].Flush.NumObjects()); err != nil {
		return nil, report, err
	}
	return out, report, nil
}

// lift copies shard s's recovered state, in its local coordinates, into
// out in global ones. An oid outside the shard's range is an error: the
// shard cannot legitimately hold it.
func lift(out, rec *statedb.DB, s int, width uint64) error {
	var err error
	rec.Range(func(oid logrec.OID, v statedb.Version) bool {
		if uint64(oid) >= width {
			err = fmt.Errorf("multilog: shard %d recovered object %d outside its %d-object range", s, oid, width)
			return false
		}
		out.ForceSet(globalOID(s, width, oid), v)
		return true
	})
	return err
}

// recoverParts replays every shard's durable log and collects the global
// winner set — every transaction with a durable COMMIT or DECIDE on any
// shard. Transaction identifiers are globally unique and only a
// coordinator ever logs a decision, so the union is exactly the set of
// globally committed transactions.
func recoverParts(parts []*core.Setup, blockRead sim.Time) ([]*statedb.DB, RecoveryReport, map[logrec.TxID]bool, error) {
	var report RecoveryReport
	recs := make([]*statedb.DB, len(parts))
	winners := make(map[logrec.TxID]bool)
	for i, p := range parts {
		rec, res, err := recovery.Recover(p.Dev, p.DB, blockRead)
		if err != nil {
			return nil, report, nil, fmt.Errorf("multilog: shard %d: %w", i, err)
		}
		recs[i] = rec
		report.Per = append(report.Per, res)
		report.SerialTime += res.EstimatedTime
		if res.EstimatedTime > report.ParallelTime {
			report.ParallelTime = res.EstimatedTime
		}
		for _, tx := range res.WinnerTxs {
			winners[tx] = true
		}
	}
	return recs, report, winners, nil
}

// resolveInDoubt settles one shard's in-doubt prepared branches: a branch
// whose transaction appears in the global winner set redoes its durable
// updates (the decision was commit); otherwise it is presumed aborted —
// abort decisions are never logged, so absence of a durable DECIDE is the
// abort verdict.
func resolveInDoubt(rec *statedb.DB, report *RecoveryReport, res recovery.Result, winners map[logrec.TxID]bool) {
	for _, idt := range res.InDoubt {
		report.InDoubt++
		if !winners[idt.Tx] {
			report.ResolvedAbort++
			continue
		}
		report.ResolvedCommit++
		for _, w := range idt.Writes {
			rec.Apply(w.Obj, w.LSN, w.Val, idt.Tx)
		}
	}
}
