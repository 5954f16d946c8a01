package multilog

import (
	"testing"

	"ellog/internal/core"
	"ellog/internal/logrec"
	"ellog/internal/recovery"
	"ellog/internal/sim"
	"ellog/internal/statedb"
	"ellog/internal/workload"
)

// paperShards is a shared-nothing run of n shards, each at the paper
// workload scaled to perShardTPS over its own million objects.
func paperShards(n int, perShardTPS float64, runtime sim.Time) PDESConfig {
	return PDESConfig{
		Seed:   3,
		Shards: n,
		LM: core.Params{
			Mode: core.ModeEphemeral, GenSizes: []int{20, 16}, Recirculate: true,
		},
		Flush: core.FlushConfig{Drives: 10, Transfer: 25 * sim.Millisecond, NumObjects: 1_000_000},
		Workload: workload.Config{
			Mix:         workload.PaperMix(0.05),
			ArrivalRate: perShardTPS,
			Runtime:     runtime,
		},
	}
}

// TestOIDTranslationRoundTrip checks the one coordinate rule — local oid o
// of shard s is global oid s*width+o — and that lifting a recovered state
// refuses an oid its shard cannot own.
func TestOIDTranslationRoundTrip(t *testing.T) {
	const width = 100
	for s := 0; s < 3; s++ {
		for o := logrec.OID(0); o < width; o += 7 {
			g := globalOID(s, width, o)
			if uint64(g)/width != uint64(s) || logrec.OID(uint64(g)%width) != o {
				t.Fatalf("shard %d local %d -> global %d", s, o, g)
			}
		}
	}
	rec := statedb.New()
	rec.ForceSet(5, statedb.Version{LSN: 1})
	out := statedb.New()
	if err := lift(out, rec, 2, width); err != nil {
		t.Fatal(err)
	}
	if v, ok := out.Get(205); !ok || v.LSN != 1 || out.Len() != 1 {
		t.Fatalf("shard 2's object 5 did not land at global 205: %+v, %v", v, ok)
	}
	rec.ForceSet(width, statedb.Version{LSN: 2})
	if err := lift(statedb.New(), rec, 2, width); err == nil {
		t.Fatal("local oid beyond the shard's range lifted")
	}
}

func TestPartitionsRunIndependently(t *testing.T) {
	live, st, err := RunPDES(paperShards(4, 100, 30*sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if live.Insufficient() {
		t.Fatalf("system insufficient: %v", st)
	}
	// Four shards at 100 TPS each: aggregate bandwidth ~4x one log's.
	if st.Bandwidth < 45 || st.Bandwidth > 60 {
		t.Fatalf("aggregate bandwidth %.1f, want ~4x12.7", st.Bandwidth)
	}
	total := uint64(0)
	for i, s := range live.Shards {
		ws := s.Gen.Stats()
		if ws.Started != 3000 {
			t.Fatalf("shard %d started %d, want 3000", i, ws.Started)
		}
		if ws.Killed != 0 {
			t.Fatalf("shard %d killed %d", i, ws.Killed)
		}
		total += ws.Committed
		// No invariant violations anywhere.
		if err := s.Setup.LM.CheckInvariants(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	if total < 11000 {
		t.Fatalf("only %d commits across 4 shards", total)
	}
	if st.Delivered != 0 {
		t.Fatalf("shared-nothing run exchanged %d cross-LP events", st.Delivered)
	}
}

func TestGlobalCrashRecovery(t *testing.T) {
	live, err := BuildPDES(paperShards(4, 100, 60*sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	live.PE.Run(37 * sim.Second) // crash the whole machine at once

	merged, report, err := RecoverAll(live.Setups(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Per) != 4 {
		t.Fatalf("%d shard recoveries", len(report.Per))
	}
	oracle := live.Oracle()
	if len(oracle) == 0 {
		t.Fatal("empty oracle")
	}
	if err := recovery.VerifyOracle(merged, oracle); err != nil {
		t.Fatal(err)
	}
	// Parallel recovery time = slowest shard, about one shard's log; total
	// blocks read is ~4x that.
	totalRead := 0
	for _, r := range report.Per {
		totalRead += r.BlocksRead
	}
	if report.ParallelTime <= 0 {
		t.Fatal("no parallel recovery time")
	}
	serialTime := sim.Time(totalRead) * recovery.DefaultBlockRead
	if report.SerialTime != serialTime {
		t.Fatalf("serial time %v, want %v", report.SerialTime, serialTime)
	}
	if report.ParallelTime*3 > serialTime {
		t.Fatalf("parallel recovery %v not well below serial %v", report.ParallelTime, serialTime)
	}
}

// TestKillIsolation gives shard 0 a hopeless budget and the others a
// generous one. Kills must stay confined to shard 0 — no global
// synchronization means no global fallout. The uneven shards are built by
// hand from the parts BuildPDES uses, since BuildPDES sizes every shard
// alike.
func TestKillIsolation(t *testing.T) {
	const width = 1_000_000
	pe := sim.NewParallelEngine(9, 10, 3, 15*sim.Millisecond)
	var parts []*core.Setup
	var gens []*workload.Generator
	for i, sizes := range [][]int{{5, 4}, {20, 16}, {20, 16}} {
		lp := pe.LP(i)
		s, err := core.NewSetup(lp.Engine, core.Params{
			Mode: core.ModeEphemeral, GenSizes: sizes, Recirculate: true,
		}, core.FlushConfig{Drives: 10, Transfer: 25 * sim.Millisecond, NumObjects: width})
		if err != nil {
			t.Fatal(err)
		}
		g, err := workload.New(lp.Engine, s.LM, workload.Config{
			Mix:         workload.PaperMix(0.05),
			ArrivalRate: 100,
			Runtime:     30 * sim.Second,
			NumObjects:  width,
			TidBase:     uint64(i) << 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		g.Start()
		parts = append(parts, s)
		gens = append(gens, g)
	}
	pe.Run(30 * sim.Second)
	if gens[0].Stats().Killed == 0 {
		t.Fatal("starved shard killed nothing — test premise broken")
	}
	for i := 1; i < 3; i++ {
		if gens[i].Stats().Killed != 0 {
			t.Fatalf("kills leaked into healthy shard %d", i)
		}
	}
	// And recovery of the whole machine is still exact.
	merged, _, err := RecoverAll(parts, 0)
	if err != nil {
		t.Fatal(err)
	}
	oracle := make(map[logrec.OID]logrec.LSN)
	for i, g := range gens {
		for oid, lsn := range g.Oracle() {
			oracle[globalOID(i, width, oid)] = lsn
		}
	}
	if err := recovery.VerifyOracle(merged, oracle); err != nil {
		t.Fatal(err)
	}
}
