package recovery

import (
	"errors"
	"math/rand/v2"
	"testing"

	"ellog/internal/blockdev"
	"ellog/internal/core"
	"ellog/internal/harness"
	"ellog/internal/logrec"
	"ellog/internal/sim"
	"ellog/internal/statedb"
)

func paperishConfig(seed uint64, sizes []int, recirc bool) harness.Config {
	cfg := harness.PaperDefaults(0.05)
	cfg.Seed = seed
	cfg.LM = core.Params{Mode: core.ModeEphemeral, GenSizes: sizes, Recirculate: recirc}
	cfg.Workload.Runtime = 120 * sim.Second
	cfg.Workload.NumObjects = 1_000_000
	cfg.Flush.NumObjects = 1_000_000
	return cfg
}

// crashAndRecover runs the configuration up to crashAt, takes the crash
// image, recovers and verifies against the generator's oracle.
func crashAndRecover(t *testing.T, cfg harness.Config, crashAt sim.Time) Result {
	t.Helper()
	live, err := harness.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live.Setup.Eng.Run(crashAt) // the crash: simply stop the world
	recovered, res, err := Recover(live.Setup.Dev, live.Setup.DB, 0)
	if err != nil {
		t.Fatalf("crash at %v: %v", crashAt, err)
	}
	if err := VerifyOracle(recovered, live.Gen.Oracle()); err != nil {
		t.Fatalf("crash at %v: %v\nLM: %s", crashAt, err, live.Setup.LM.Stats())
	}
	return res
}

func TestCrashRecoveryNoRecirculation(t *testing.T) {
	cfg := paperishConfig(1, []int{18, 16}, false)
	for _, at := range []sim.Time{
		100 * sim.Millisecond, // before anything is durable
		sim.Second,
		5 * sim.Second,
		30 * sim.Second,
		90 * sim.Second,
	} {
		crashAndRecover(t, cfg, at)
	}
}

func TestCrashRecoveryWithRecirculation(t *testing.T) {
	cfg := paperishConfig(2, []int{18, 10}, true)
	for _, at := range []sim.Time{
		2 * sim.Second,
		20 * sim.Second,
		60 * sim.Second,
		110 * sim.Second,
	} {
		res := crashAndRecover(t, cfg, at)
		if at > 30*sim.Second && res.BlocksRead == 0 {
			t.Fatalf("no blocks read at %v", at)
		}
	}
}

// TestCrashRecoveryProperty is the paper's central safety claim as a
// property: crash an EL log at a random instant and single-pass recovery
// restores exactly the durably committed state — even while records are
// being forwarded, recirculated, and force flushed under pressure.
func TestCrashRecoveryProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(99, 100))
	for i := 0; i < 12; i++ {
		seed := rng.Uint64()
		recirc := i%2 == 0
		sizes := []int{14 + rng.IntN(8), 8 + rng.IntN(10)}
		cfg := paperishConfig(seed, sizes, recirc)
		cfg.Workload.Runtime = 60 * sim.Second
		crashAt := sim.Time(rng.Int64N(int64(50 * sim.Second)))
		crashAndRecover(t, cfg, crashAt)
	}
}

// TestCrashRecoveryUnderKillPressure uses undersized generations: some
// transactions get killed, and recovery must restore exactly the surviving
// committed state.
func TestCrashRecoveryUnderKillPressure(t *testing.T) {
	cfg := paperishConfig(3, []int{6, 4}, true)
	cfg.Workload.Runtime = 40 * sim.Second
	live, err := harness.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live.Setup.Eng.Run(35 * sim.Second)
	if live.Gen.Stats().Killed == 0 {
		t.Fatal("test needs kill pressure but nothing was killed")
	}
	recovered, _, err := Recover(live.Setup.Dev, live.Setup.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyOracle(recovered, live.Gen.Oracle()); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryOfEmptyLog(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	dev := blockdev.New(eng, sim.Millisecond)
	db := statedb.New()
	recovered, res, err := Recover(dev, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksRead != 0 || res.Winners != 0 || recovered.Len() != 0 {
		t.Fatalf("empty log recovery: %+v", res)
	}
}

func TestRecoveryPreservesInputDB(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	dev := blockdev.New(eng, sim.Millisecond)
	db := statedb.New()
	db.Apply(1, 5, 55, 1)
	recovered, _, err := Recover(dev, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	recovered.Apply(1, 9, 99, 1)
	if v, _ := db.Get(1); v.LSN != 5 {
		t.Fatal("Recover mutated the input database")
	}
}

func TestRecoverySkipsLosers(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	dev := blockdev.New(eng, sim.Millisecond)
	// Winner tx 1 (commit durable), loser tx 2 (no commit).
	blk := dev.Alloc(0)
	recs := []*logrec.Record{
		logrec.NewTxRecord(1, 0, logrec.KindBegin, 1, 8),
		logrec.NewDataRecord(2, 1, 1, 100, 100),
		logrec.NewTxRecord(3, 2, logrec.KindCommit, 1, 8),
		logrec.NewTxRecord(4, 3, logrec.KindBegin, 2, 8),
		logrec.NewDataRecord(5, 4, 2, 200, 100),
	}
	dev.Write(blk, logrec.EncodeBlock(recs), nil)
	eng.Run(sim.Second)
	recovered, res, err := Recover(dev, statedb.New(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Winners != 1 || res.Losers != 1 {
		t.Fatalf("winners/losers = %d/%d, want 1/1", res.Winners, res.Losers)
	}
	if _, ok := recovered.Get(100); !ok {
		t.Fatal("winner's update not recovered")
	}
	if _, ok := recovered.Get(200); ok {
		t.Fatal("loser's update leaked into the database")
	}
}

func TestRecoveryPicksLatestCommittedVersion(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	dev := blockdev.New(eng, sim.Millisecond)
	blk := dev.Alloc(0)
	// Two committed versions of object 7 plus one stale loser version.
	recs := []*logrec.Record{
		logrec.NewDataRecord(10, 0, 1, 7, 100),
		logrec.NewTxRecord(11, 1, logrec.KindCommit, 1, 8),
		logrec.NewDataRecord(20, 2, 2, 7, 100),
		logrec.NewTxRecord(21, 3, logrec.KindCommit, 2, 8),
		logrec.NewDataRecord(30, 4, 3, 7, 100), // tx 3 never commits
	}
	dev.Write(blk, logrec.EncodeBlock(recs), nil)
	eng.Run(sim.Second)
	recovered, _, err := Recover(dev, statedb.New(), 0)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := recovered.Get(7)
	if !ok || v.LSN != 20 {
		t.Fatalf("recovered version %+v, want LSN 20", v)
	}
}

func TestRecoveryIdempotent(t *testing.T) {
	cfg := paperishConfig(7, []int{18, 12}, true)
	live, err := harness.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live.Setup.Eng.Run(20 * sim.Second)
	r1, _, err := Recover(live.Setup.Dev, live.Setup.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := Recover(live.Setup.Dev, r1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eq, bad := r1.Equal(r2); !eq {
		t.Fatalf("second recovery changed state at object %d", bad)
	}
}

func TestRecoveryTimeTracksLogSize(t *testing.T) {
	// The paper's recovery argument: less log space means proportionally
	// faster recovery. A 34-block EL log must beat a 123-block FW log.
	small := crashAndRecoverBlocks(t, []int{18, 16})
	if small.EstimatedTime <= 0 {
		t.Fatal("no estimated recovery time")
	}
	perBlock := small.EstimatedTime / sim.Time(small.BlocksRead)
	if perBlock != DefaultBlockRead {
		t.Fatalf("per-block read %v, want %v", perBlock, DefaultBlockRead)
	}
	// 34 blocks at 15 ms each ~ 0.51 s: "recovery in less than a second
	// may be feasible".
	if small.EstimatedTime > sim.Second {
		t.Fatalf("EL log recovery estimate %v exceeds a second", small.EstimatedTime)
	}
}

func crashAndRecoverBlocks(t *testing.T, sizes []int) Result {
	t.Helper()
	cfg := paperishConfig(5, sizes, false)
	live, err := harness.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live.Setup.Eng.Run(60 * sim.Second)
	_, res, err := Recover(live.Setup.Dev, live.Setup.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCorruptBlockSkippedAndCounted(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	dev := blockdev.New(eng, sim.Millisecond)
	// One garbage block and one valid block: recovery must not abort on the
	// checksum failure — it counts the block as torn, salvages nothing from
	// it, and still recovers the valid block's committed update.
	bad := dev.Alloc(0)
	dev.Write(bad, []byte{1, 2, 3}, nil)
	good := dev.Alloc(0)
	recs := []*logrec.Record{
		logrec.NewDataRecord(2, 1, 1, 100, 100),
		logrec.NewTxRecord(3, 2, logrec.KindCommit, 1, 8),
	}
	dev.Write(good, logrec.EncodeBlock(recs), nil)
	eng.Run(sim.Second)
	recovered, res, err := Recover(dev, statedb.New(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TornBlocks != 1 || res.SalvagedRecs != 0 {
		t.Fatalf("torn=%d salvaged=%d, want 1/0", res.TornBlocks, res.SalvagedRecs)
	}
	if _, ok := recovered.Get(100); !ok {
		t.Fatal("valid block's update lost because a corrupt block was present")
	}
	if len(res.WinnerTxs) != 1 || res.WinnerTxs[0] != 1 {
		t.Fatalf("WinnerTxs = %v, want [1]", res.WinnerTxs)
	}
}

// A deliberately torn final block — a crash mid-write deposited only a
// prefix of the new bytes — recovers to its salvaged prefix: transactions
// whose COMMIT survived in the prefix win, a COMMIT in the lost suffix
// loses, and a bit flip inside the prefix discards from that record on.
func TestRecoveryOverTornFinalBlock(t *testing.T) {
	mk := func() (*sim.Engine, *blockdev.Device, blockdev.BlockID, []byte) {
		eng := sim.NewEngine(1, 2)
		dev := blockdev.New(eng, sim.Millisecond)
		blk := dev.Alloc(0)
		full := logrec.EncodeBlock([]*logrec.Record{
			logrec.NewDataRecord(2, 1, 1, 100, 100),
			logrec.NewTxRecord(3, 2, logrec.KindCommit, 1, 8),
			logrec.NewDataRecord(4, 3, 2, 200, 100),
			logrec.NewTxRecord(5, 4, logrec.KindCommit, 2, 8),
		})
		return eng, dev, blk, full
	}

	// Tear between tx 1's COMMIT and tx 2's records: issue the write and
	// tear it so only the first half reaches the platter.
	eng, dev, blk, full := mk()
	dev.Write(blk, full, nil)
	// The wire layout is a fixed header followed by four equal-size records;
	// cut mid-way through the third record so exactly tx 1's data and COMMIT
	// survive in the prefix.
	perRec := (len(full) - 8) / 4
	cut := 8 + 2*perRec + perRec/2
	frac := float64(cut) / float64(len(full))
	if id, ok := dev.TearOldestInFlight(frac); !ok || id != blk {
		t.Fatalf("tear failed: id=%d ok=%v", id, ok)
	}
	recovered, res, err := Recover(dev, statedb.New(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TornBlocks != 1 {
		t.Fatalf("TornBlocks = %d, want 1", res.TornBlocks)
	}
	if res.SalvagedRecs == 0 {
		t.Fatal("nothing salvaged from the torn block's prefix")
	}
	if _, ok := recovered.Get(100); !ok {
		t.Fatal("tx 1 committed in the salvaged prefix but its update was lost")
	}
	if _, ok := recovered.Get(200); ok {
		t.Fatal("tx 2's COMMIT was in the lost suffix but its update leaked")
	}
	_ = eng

	// A bit flip inside an otherwise-complete block: salvage stops at the
	// flipped record; everything before it survives.
	eng2, dev2, blk2, full2 := mk()
	dev2.Write(blk2, full2, nil)
	eng2.Run(sim.Second)
	raw := dev2.Read(blk2)
	raw[len(raw)-10] ^= 0x40 // clobber the last record
	recovered2, res2, err := Recover(dev2, statedb.New(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.TornBlocks != 1 {
		t.Fatalf("TornBlocks = %d, want 1", res2.TornBlocks)
	}
	if _, ok := recovered2.Get(100); !ok {
		t.Fatal("corruption in a later record destroyed an earlier valid one")
	}
	if _, ok := recovered2.Get(200); ok {
		t.Fatal("tx 2 won although its COMMIT record was corrupted")
	}
}

func TestMismatchErrorFormatting(t *testing.T) {
	cases := []struct {
		err  *MismatchError
		want string
	}{
		{&MismatchError{Obj: 7, Want: 12, Missing: true},
			"recovery: committed update lost: object 7, want LSN 12"},
		{&MismatchError{Obj: 8, Got: 33, Extra: true},
			"recovery: uncommitted state leaked: object 8 at LSN 33"},
		{&MismatchError{Obj: 9, Want: 5, Got: 4},
			"recovery: object 9 recovered at LSN 4, committed LSN 5"},
	}
	for _, c := range cases {
		if got := c.err.Error(); got != c.want {
			t.Errorf("Error() = %q, want %q", got, c.want)
		}
	}
}

func TestVerifyOracleDetectsDivergence(t *testing.T) {
	db := statedb.New()
	db.Apply(1, 10, 100, 1)
	if err := VerifyOracle(db, map[logrec.OID]logrec.LSN{1: 10}); err != nil {
		t.Fatalf("exact match rejected: %v", err)
	}
	if err := VerifyOracle(db, map[logrec.OID]logrec.LSN{1: 11}); err == nil {
		t.Fatal("wrong LSN accepted")
	}
	if err := VerifyOracle(db, map[logrec.OID]logrec.LSN{1: 10, 2: 5}); err == nil {
		t.Fatal("missing object accepted")
	}
	if err := VerifyOracle(db, map[logrec.OID]logrec.LSN{}); err == nil {
		t.Fatal("leaked object accepted")
	}
}

// With several mismatches VerifyOracle names the lowest object id, on
// every call: map iteration order must not pick the report.
func TestVerifyOracleReportsLowestMismatch(t *testing.T) {
	db := statedb.New()
	for oid := logrec.OID(1); oid <= 64; oid++ {
		db.Apply(oid, logrec.LSN(oid), 100, 1)
	}
	oracle := map[logrec.OID]logrec.LSN{}
	for oid := logrec.OID(1); oid <= 64; oid++ {
		oracle[oid] = logrec.LSN(oid)
	}
	oracle[41] = 1000  // recovered at LSN 41, committed 1000
	delete(oracle, 37) // recovered but never committed
	for i := 0; i < 20; i++ {
		err := VerifyOracle(db, oracle)
		var me *MismatchError
		if !errors.As(err, &me) || me.Obj != 37 || !me.Extra {
			t.Fatalf("call %d: got %v, want the leaked object 37", i, err)
		}
	}
}

func TestSimulatedRecoveryTime(t *testing.T) {
	cfg := paperishConfig(9, []int{18, 16}, false)
	live, err := harness.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live.Setup.Eng.Run(60 * sim.Second)
	recovered, tr, err := SimulateRecovery(live.Setup.Dev, live.Setup.DB, TimedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyOracle(recovered, live.Gen.Oracle()); err != nil {
		t.Fatal(err)
	}
	if tr.Elapsed != tr.ReadTime+tr.RedoTime {
		t.Fatalf("elapsed %v != read %v + redo %v", tr.Elapsed, tr.ReadTime, tr.RedoTime)
	}
	// 34 blocks at 15 ms: the whole EL log reads in ~0.51 s — the paper's
	// "recovery in less than a second may be feasible".
	if tr.ReadTime != sim.Time(tr.BlocksRead)*DefaultBlockRead {
		t.Fatalf("read time %v for %d blocks", tr.ReadTime, tr.BlocksRead)
	}
	if tr.Elapsed > sim.Second {
		t.Fatalf("EL recovery took %v, want under a second", tr.Elapsed)
	}
	// Parallel log areas (one drive per generation) halve the read pass.
	_, tr2, err := SimulateRecovery(live.Setup.Dev, live.Setup.DB, TimedOptions{ReadParallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.ReadTime >= tr.ReadTime {
		t.Fatalf("parallel read not faster: %v vs %v", tr2.ReadTime, tr.ReadTime)
	}
}

func TestSimulatedRecoveryScalesWithLogSize(t *testing.T) {
	run := func(sizes []int, mode core.Mode) TimedResult {
		cfg := paperishConfig(10, sizes, false)
		cfg.LM.Mode = mode
		live, err := harness.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		live.Setup.Eng.Run(60 * sim.Second)
		_, tr, err := SimulateRecovery(live.Setup.Dev, live.Setup.DB, TimedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	el := run([]int{18, 16}, core.ModeEphemeral)
	fw := run([]int{123}, core.ModeFirewall)
	// The paper's recovery claim quantified: the EL log reads ~3.6x faster.
	if fw.ReadTime < el.ReadTime*3 {
		t.Fatalf("FW recovery read %v not much slower than EL %v", fw.ReadTime, el.ReadTime)
	}
}

// TestCrashRecoveryWithSteal exercises the UNDO/REDO extension: with a
// steal policy, uncommitted updates reach the stable database before the
// crash, and recovery must roll every loser's version back to its
// before-image while still redoing all winners.
func TestCrashRecoveryWithSteal(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	sawUndo := false
	for i := 0; i < 10; i++ {
		cfg := paperishConfig(rng.Uint64(), []int{16 + rng.IntN(6), 8 + rng.IntN(8)}, i%2 == 0)
		cfg.LM.Steal = true
		cfg.Workload.Runtime = 60 * sim.Second
		live, err := harness.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		crashAt := sim.Time(5*sim.Second) + sim.Time(rng.Int64N(int64(45*sim.Second)))
		live.Setup.Eng.Run(crashAt)
		recovered, res, err := Recover(live.Setup.Dev, live.Setup.DB, 0)
		if err != nil {
			t.Fatalf("crash at %v: %v", crashAt, err)
		}
		if err := VerifyOracle(recovered, live.Gen.Oracle()); err != nil {
			t.Fatalf("steal crash at %v: %v", crashAt, err)
		}
		if res.Undone > 0 {
			sawUndo = true
		}
	}
	if !sawUndo {
		t.Fatal("no crash ever exercised the UNDO pass — steal not effective")
	}
}

// TestStealDirtyDatabaseAtCrash confirms the premise of the steal test
// above: the pre-recovery database really does contain uncommitted state.
func TestStealDirtyDatabaseAtCrash(t *testing.T) {
	cfg := paperishConfig(17, []int{18, 12}, true)
	cfg.LM.Steal = true
	live, err := harness.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live.Setup.Eng.Run(30 * sim.Second)
	stolen := 0
	live.Setup.DB.Range(func(oid logrec.OID, v statedb.Version) bool {
		if v.Stolen {
			stolen++
		}
		return true
	})
	if stolen == 0 {
		t.Fatal("no stolen versions in the database mid-run")
	}
	// And raw DB state must NOT match the oracle (that is recovery's job).
	if err := VerifyOracle(live.Setup.DB, live.Gen.Oracle()); err == nil {
		t.Fatal("database already clean at crash — steal test proves nothing")
	}
}
