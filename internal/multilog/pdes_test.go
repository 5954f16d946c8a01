package multilog

import (
	"fmt"
	"reflect"
	"testing"

	"ellog/internal/core"
	"ellog/internal/fault"
	"ellog/internal/harness"
	"ellog/internal/logrec"
	"ellog/internal/recovery"
	"ellog/internal/sim"
	"ellog/internal/trace"
	"ellog/internal/workload"
)

// smallPDES is a deliberately small sharded run: a few simulated seconds,
// a thousand objects per shard, and quick group commit so blocks seal —
// with the load split across shards, pure group commit would leave most of
// the run in unsealed blocks and crash sweeps with almost no durable
// instants to crash at.
func smallPDES(shards int, crossFrac float64, seed uint64) PDESConfig {
	return PDESConfig{
		Seed:   seed,
		Shards: shards,
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

// TestPDESPinned pins the simulated counts of a heavy sharded frame: four
// shards at 9x the paper's per-shard rate with a fifth of the traffic
// crossing shards, so every conservative window carries real work (~90
// events per LP per 15 ms window) and the 2PC overlay is busy. The flush
// array trades the paper's 10x25 ms drives for 10x3 ms ones, the service
// rate the 9x update rate needs. The counts are a pure function of seed
// and frame; a change to one is a change to the model.
func TestPDESPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 40 simulated seconds of four busy shards; skipped with -short")
	}
	live, st, err := RunPDES(PDESConfig{
		Seed:   1,
		Shards: 4,
		LM: core.Params{
			Mode: core.ModeEphemeral, GenSizes: []int{190, 152}, Recirculate: true,
		},
		Flush: core.FlushConfig{Drives: 10, Transfer: 3 * sim.Millisecond, NumObjects: 125_000},
		Workload: workload.Config{
			Mix:         workload.PaperMix(0.05),
			ArrivalRate: 900,
			Runtime:     40 * sim.Second,
		},
		CrossFrac: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if live.Insufficient() {
		t.Error("pdes: the pinned frame's run was insufficient")
	}
	pin := func(metric string, got, want uint64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %d, pinned %d", metric, got, want)
		}
	}
	pin("pdes/events", st.Events, 960212)
	pin("pdes/windows", st.Windows, 2667)
	pin("pdes/cross_lp_events", st.Delivered, 139813)
	pin("pdes/local_committed", st.Committed, 111026)
	pin("pdes/cross_committed", st.CrossCommitted, 27735)
}

// TestPDESSingleShardReducesToHarness is the reduction theorem at the
// model level: a 1-shard base-mode PDES run is bit-for-bit the classic
// single-engine harness run of the same configuration — same seeds, same
// generator calls, same stats.
func TestPDESSingleShardReducesToHarness(t *testing.T) {
	cfg := smallPDES(1, 0, 99)
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
	live, err := BuildPDES(smallPDES(3, 0.3, 7))
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

// TestPDESWriteFailuresKeepAckedCommits composes fault injection with
// sharding: three shards, each with its own fault plan, under transient
// write failures at three rates, with and without cross-shard 2PC
// traffic. Abandoned blocks then carry participant branches that are
// preparing or already prepared, coordinators whose DECIDE died with the
// block, and committing branches whose COMMIT rides elsewhere. After a
// drain every shard's bookkeeping must be intact and the whole machine's
// crash image must recover exactly the acknowledged commits, both
// branches of every cross-shard one included.
func TestPDESWriteFailuresKeepAckedCommits(t *testing.T) {
	var runs, failed, abandoned int
	var crossAborts uint64
	for _, cross := range []float64{0, 0.3} {
		for _, wf := range []float64{0.25, 0.4, 0.5} {
			for seed := uint64(1); seed <= 30; seed++ {
				err := func() error {
					live, err := BuildPDES(smallPDES(3, cross, seed))
					if err != nil {
						return err
					}
					if _, err := live.AttachFaults(fault.Config{Seed: seed, WriteFailProb: wf}); err != nil {
						return err
					}
					live.Run()
					live.PE.Run(live.PE.LP(0).Now() + 30*sim.Second)
					st := live.Stats()
					for i, s := range live.Shards {
						if err := s.Setup.LM.CheckInvariants(); err != nil {
							return fmt.Errorf("shard %d: %w", i, err)
						}
						if st.PerShard[i].AbandonedWrites > 0 {
							abandoned++
						}
					}
					crossAborts += st.CrossAborted
					merged, _, err := RecoverAll(live.Setups(), 0)
					if err != nil {
						return err
					}
					return recovery.VerifyOracle(merged, live.Oracle())
				}()
				runs++
				if err != nil {
					failed++
					t.Errorf("cross %.1f, write-fail %.2f, seed %d: %v", cross, wf, seed, err)
				}
			}
		}
	}
	if abandoned == 0 || crossAborts == 0 {
		t.Fatalf("sweep without power: %d shards abandoned a block write, %d cross-shard aborts", abandoned, crossAborts)
	}
	if failed > 0 {
		t.Errorf("%d of %d runs failed", failed, runs)
	}
}

// A 1-shard faulty run is the single-log run with the same plan attached:
// shard 0's plan draws from exactly the configured fault seed.
func TestPDESSingleShardFaultsReduceToHarness(t *testing.T) {
	cfg := smallPDES(1, 0, 5)
	fc := fault.Config{Seed: 11, WriteFailProb: 0.4, SlowProb: 0.2}
	seqCfg := harness.Config{Seed: cfg.Seed, LM: cfg.LM, Flush: cfg.Flush, Workload: cfg.Workload}
	seqCfg.Workload.NumObjects = cfg.Flush.NumObjects
	seq, err := harness.Build(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Attach(seq.Setup, fc)
	if err != nil {
		t.Fatal(err)
	}
	seq.Setup.Eng.Run(cfg.Workload.Runtime)
	live, err := BuildPDES(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := live.AttachFaults(fc)
	if err != nil {
		t.Fatal(err)
	}
	live.Run()
	if plan.Stats().WriteFails == 0 {
		t.Fatal("the plan injected nothing; the comparison has no power")
	}
	if got, want := plans[0].Stats(), plan.Stats(); got != want {
		t.Fatalf("fault stats diverged: pdes %+v, harness %+v", got, want)
	}
	if got, want := live.Shards[0].Setup.LM.Stats(), seq.Setup.LM.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("LM stats diverged:\nharness: %+v\npdes:    %+v", want, got)
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
		cfg := smallPDES(4, 0, 1)
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
		cfg := smallPDES(2, 0, 1)
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
	live, err := BuildPDES(smallPDES(3, 0.3, 1))
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

// TestShardedByteIdentical re-runs one xshard configuration and demands
// identical results — stats, report text, joined oracle, whole-machine
// recovery and every shard's trace event stream — the determinism
// contract, 2PC messages included.
func TestShardedByteIdentical(t *testing.T) {
	type result struct {
		stats    PDESStats
		report   string
		oracle   map[logrec.OID]logrec.LSN
		recovery string
		traces   [][]trace.Event // per LP, in emission order
	}
	run := func() result {
		live, err := BuildPDES(smallPDES(3, 0.3, 7))
		if err != nil {
			t.Fatal(err)
		}
		traces := make([][]trace.Event, len(live.Shards))
		for i, s := range live.Shards {
			s.Setup.LM.SetTracer(trace.Func(func(e trace.Event) { traces[i] = append(traces[i], e) }))
		}
		live.Run()
		st := live.Stats()
		_, report, err := RecoverAll(live.Setups(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return result{st, st.String(), live.Oracle(), fmt.Sprintf("%+v", report), traces}
	}
	a, b := run(), run()
	if len(a.oracle) == 0 {
		t.Fatal("vacuous run: empty oracle")
	}
	for i, evs := range a.traces {
		commits := 0
		for _, e := range evs {
			if e.Kind == trace.EvCommit {
				commits++
			}
		}
		if commits == 0 {
			t.Fatalf("vacuous trace: LP %d emitted %d events, no commit among them", i, len(evs))
		}
	}
	for i := range a.traces {
		if !reflect.DeepEqual(a.traces[i], b.traces[i]) {
			t.Fatalf("LP %d trace streams diverged: %d events in the first run, %d in the second", i, len(a.traces[i]), len(b.traces[i]))
		}
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of the same sharded config diverged:\n--- first\n%s%s\n--- second\n%s%s",
			a.report, a.recovery, b.report, b.recovery)
	}
}
