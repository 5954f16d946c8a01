package multilog

import (
	"fmt"
	"reflect"
	"testing"

	"ellog/internal/core"
	"ellog/internal/harness"
	"ellog/internal/logrec"
	"ellog/internal/recovery"
	"ellog/internal/sim"
	"ellog/internal/workload"
)

// smallPDES is a deliberately small sharded run: a few simulated seconds,
// a thousand objects per shard, and quick group commit so blocks seal —
// with the load split across shards, pure group commit would leave most of
// the run in unsealed blocks and crash sweeps with almost no durable
// instants to crash at.
func smallPDES(shards, workers int, crossFrac float64, seed uint64) PDESConfig {
	return PDESConfig{
		Seed:    seed,
		Shards:  shards,
		Workers: workers,
		LM: core.Params{
			Mode: core.ModeEphemeral, GenSizes: []int{10, 10},
			GroupCommitTimeout: 20 * sim.Millisecond,
		},
		Flush: core.FlushConfig{Drives: 2, Transfer: 5 * sim.Millisecond, NumObjects: 1000},
		Workload: workload.Config{
			Mix: workload.Mix{
				{Name: "short", Prob: 0.8, Lifetime: 300 * sim.Millisecond, NumRecords: 2, RecordSize: 100},
				{Name: "long", Prob: 0.2, Lifetime: 900 * sim.Millisecond, NumRecords: 3, RecordSize: 100},
			},
			ArrivalRate: 40,
			Runtime:     4 * sim.Second,
		},
		CrossFrac: crossFrac,
	}
}

// TestPDESWorkerInvariance is the CI determinism matrix in miniature: the
// full model (base and xshard configs) run under every worker count must
// produce byte-identical reports — the whole-machine recovery of the end
// state, 2PC resolution included — to the 1-worker sequential reference.
func TestPDESWorkerInvariance(t *testing.T) {
	cases := []struct {
		name      string
		crossFrac float64
	}{
		{"base", 0},
		{"xshard", 0.25},
	}
	run := func(t *testing.T, workers int, crossFrac float64) (PDESStats, string) {
		live, st, err := RunPDES(smallPDES(4, workers, crossFrac, 12345))
		if err != nil {
			t.Fatal(err)
		}
		_, report, err := RecoverAll(live.Setups(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return st, fmt.Sprintf("%+v", report)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, refRecovery := run(t, 1, tc.crossFrac)
			if ref.Events == 0 || ref.Committed == 0 {
				t.Fatalf("vacuous reference run: %+v", ref)
			}
			if tc.crossFrac > 0 && ref.Delivered == 0 {
				t.Fatal("xshard run produced no cross-LP events")
			}
			for _, workers := range []int{2, 4, 8} {
				got, gotRecovery := run(t, workers, tc.crossFrac)
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("workers=%d stats diverged from sequential reference:\nref: %+v\ngot: %+v", workers, ref, got)
				}
				if got.String() != ref.String() {
					t.Fatalf("workers=%d report text diverged:\nref:\n%s\ngot:\n%s", workers, ref, got)
				}
				if gotRecovery != refRecovery {
					t.Fatalf("workers=%d recovery diverged:\nref: %s\ngot: %s", workers, refRecovery, gotRecovery)
				}
			}
		})
	}
}

// TestPDESSingleShardReducesToHarness is the reduction theorem at the
// model level: a 1-shard base-mode PDES run is bit-for-bit the classic
// single-engine harness run of the same configuration — same seeds, same
// generator calls, same stats.
func TestPDESSingleShardReducesToHarness(t *testing.T) {
	cfg := smallPDES(1, 4, 0, 99)
	seqCfg := harness.Config{
		Seed:     cfg.Seed,
		LM:       cfg.LM,
		Flush:    cfg.Flush,
		Workload: cfg.Workload,
	}
	seqCfg.Workload.NumObjects = cfg.Flush.NumObjects
	want, err := harness.Run(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	live, got, err := RunPDES(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.PerShard) != 1 {
		t.Fatalf("%d shards in stats, want 1", len(got.PerShard))
	}
	if !reflect.DeepEqual(got.PerShard[0], want.LM) {
		t.Fatalf("LM stats diverged:\nharness: %+v\npdes:    %+v", want.LM, got.PerShard[0])
	}
	if ws := live.Shards[0].Gen.Stats(); !reflect.DeepEqual(ws, want.Workload) {
		t.Fatalf("workload stats diverged:\nharness: %+v\npdes:    %+v", want.Workload, ws)
	}
}

// TestPDESCrossCommitsAndRecovers drains an xshard run and checks the 2PC
// overlay's accounting, the managers' internal invariants, and that the
// whole machine's crash image recovers to exactly the acknowledged
// commits, both branches of every cross-shard one included.
func TestPDESCrossCommitsAndRecovers(t *testing.T) {
	live, err := BuildPDES(smallPDES(3, 2, 0.3, 7))
	if err != nil {
		t.Fatal(err)
	}
	live.Run()
	// Drain in-flight transactions and protocol messages.
	live.PE.Run(live.PE.LP(0).Now() + 30*sim.Second)
	st := live.Stats()
	if st.CrossStarted == 0 || st.CrossCommitted == 0 {
		t.Fatalf("no cross-shard traffic: %+v", st)
	}
	if st.Delivered == 0 {
		t.Fatal("cross-shard run delivered no cross-LP events")
	}
	// The overlay path pays a message delay each way plus prepare and
	// decide durability, so it cannot undercut the local commit path.
	if st.CrossE2EMean < st.E2EMean/2 {
		t.Fatalf("cross e2e mean %.4fs implausibly low vs overall %.4fs", st.CrossE2EMean, st.E2EMean)
	}
	var inflight int
	for _, s := range live.Shards {
		if err := s.Setup.LM.CheckInvariants(); err != nil {
			t.Fatalf("shard %d: %v", s.LP.Index(), err)
		}
		inflight += len(s.cross.out) + len(s.cross.in)
	}
	if inflight != 0 {
		t.Fatalf("%d overlay transactions still in flight after drain", inflight)
	}
	for _, s := range live.Shards {
		c := s.cross
		if c.started.Count() != c.committed.Count()+c.aborted.Count() {
			t.Fatalf("shard %d overlay accounting: started %d != committed %d + aborted %d",
				s.LP.Index(), c.started.Count(), c.committed.Count(), c.aborted.Count())
		}
	}

	// Crash the drained machine and recover it whole.
	oracle := live.Oracle()
	const width = 1000
	crossWrites := 0
	for oid := range oracle {
		if uint64(oid)%width >= width-width/pdesReserveDiv {
			crossWrites++
		}
	}
	if crossWrites == 0 {
		t.Fatal("joined oracle holds no cross-shard write — nothing to verify")
	}
	merged, report, err := RecoverAll(live.Setups(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Per) != 3 {
		t.Fatalf("%d shard recoveries", len(report.Per))
	}
	if err := recovery.VerifyOracle(merged, oracle); err != nil {
		t.Fatal(err)
	}
}

// TestPDESNestedParallelismGuard exercises the named panic: a Workers>1
// run refuses to start while another parallel run owns the process slot.
func TestPDESNestedParallelismGuard(t *testing.T) {
	if !pdesActive.CompareAndSwap(0, 1) {
		t.Fatal("parallel-run slot unexpectedly taken")
	}
	defer pdesActive.Store(0)
	live, err := BuildPDES(smallPDES(2, 2, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("nested Workers>1 run did not panic")
		}
		if msg, ok := r.(string); !ok || msg != ErrNestedParallelism {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	live.Run()
}

// TestPDESSequentialRunsInsidePool checks the documented composition rule:
// Workers=1 PDES runs may fan out across runner.Pool goroutines freely —
// the guard only rejects parallel (Workers>1) overlap.
func TestPDESSequentialRunsInsidePool(t *testing.T) {
	if !pdesActive.CompareAndSwap(0, 1) {
		t.Fatal("parallel-run slot unexpectedly taken")
	}
	defer pdesActive.Store(0)
	if _, _, err := RunPDES(smallPDES(2, 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestPDESConfigValidation covers BuildPDES's rejection paths.
func TestPDESConfigValidation(t *testing.T) {
	bad := []func(*PDESConfig){
		func(c *PDESConfig) { c.Shards = 0 },
		func(c *PDESConfig) { c.CrossFrac = 1.0 },
		func(c *PDESConfig) { c.CrossFrac = -0.1 },
		func(c *PDESConfig) { c.Shards = 1; c.CrossFrac = 0.5 },
		func(c *PDESConfig) { c.Flush.NumObjects = 4; c.CrossFrac = 0.5 },
	}
	for i, mutate := range bad {
		cfg := smallPDES(4, 1, 0, 1)
		mutate(&cfg)
		if _, err := BuildPDES(cfg); err == nil {
			t.Errorf("case %d: config accepted, want error", i)
		}
	}
}

// TestNewValidation covers the machine-shape rejections: no shards, a
// zero-width object range (the global-oid rule would map every shard onto
// one range) and per-shard manager params that core rejects.
func TestNewValidation(t *testing.T) {
	bad := map[string]func(*PDESConfig){
		"no shards":         func(c *PDESConfig) { c.Shards = 0 },
		"zero-width range":  func(c *PDESConfig) { c.Flush.NumObjects = 0 },
		"invalid LM params": func(c *PDESConfig) { c.LM = core.Params{Mode: core.ModeFirewall, GenSizes: []int{4, 4}} },
	}
	for name, mutate := range bad {
		cfg := smallPDES(2, 1, 0, 1)
		mutate(&cfg)
		if _, err := BuildPDES(cfg); err == nil {
			t.Errorf("%s: config accepted, want error", name)
		}
	}
}

// TestShardedRunCommitsCrossShard drains an xshard run and cross-checks
// the two records of a distributed commit: the home arms' commit counters
// against their oracle ledgers. Every decided transaction must be
// acknowledged and must have logged one write on each of its two shards.
func TestShardedRunCommitsCrossShard(t *testing.T) {
	live, err := BuildPDES(smallPDES(3, 2, 0.3, 1))
	if err != nil {
		t.Fatal(err)
	}
	live.Run()
	live.PE.Run(live.PE.LP(0).Now() + 30*sim.Second) // drain in-flight transactions
	st := live.Stats()
	if st.Committed == 0 || st.CrossCommitted == 0 {
		t.Fatalf("no local or no distributed commits: %+v", st)
	}
	var decided uint64
	for _, s := range live.Shards {
		if err := s.Setup.LM.CheckInvariants(); err != nil {
			t.Fatalf("shard %d: %v", s.LP.Index(), err)
		}
		home := s.LP.Index()
		decided += uint64(len(s.cross.decided))
		for tid, remote := range s.cross.decided {
			if remote == home {
				t.Fatalf("tx %d homed on shard %d decided with itself as remote", tid, home)
			}
			if !live.Acked(tid) {
				t.Fatalf("decided tx %d not acknowledged", tid)
			}
			if _, ok := s.cross.wrote[tid]; !ok {
				t.Fatalf("decided tx %d has no home branch write on shard %d", tid, home)
			}
			if _, ok := live.Shards[remote].cross.wrote[tid]; !ok {
				t.Fatalf("decided tx %d has no remote branch write on shard %d", tid, remote)
			}
		}
	}
	if decided != st.CrossCommitted {
		t.Fatalf("ledgers hold %d decided transactions, counters %d commits", decided, st.CrossCommitted)
	}
}

// TestShardedByteIdentical re-runs one parallel xshard configuration and
// demands identical results — stats, report text, joined oracle and
// whole-machine recovery — the determinism contract at a fixed worker
// count, 2PC messages included.
func TestShardedByteIdentical(t *testing.T) {
	type result struct {
		stats    PDESStats
		report   string
		oracle   map[logrec.OID]logrec.LSN
		recovery string
	}
	run := func() result {
		live, st, err := RunPDES(smallPDES(3, 4, 0.3, 7))
		if err != nil {
			t.Fatal(err)
		}
		_, report, err := RecoverAll(live.Setups(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return result{st, st.String(), live.Oracle(), fmt.Sprintf("%+v", report)}
	}
	a, b := run(), run()
	if len(a.oracle) == 0 {
		t.Fatal("vacuous run: empty oracle")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of the same sharded config diverged:\n--- first\n%s%s\n--- second\n%s%s",
			a.report, a.recovery, b.report, b.recovery)
	}
}
