package fault

import (
	"testing"

	"ellog/internal/blockdev"
	"ellog/internal/core"
	"ellog/internal/harness"
	"ellog/internal/recovery"
	"ellog/internal/sim"
	"ellog/internal/trace"
	"ellog/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	good := Config{WriteFailProb: 0.5, CorruptProb: 1, StallProb: 0}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{WriteFailProb: -0.1},
		{CorruptProb: 1.5},
		{SlowProb: 2},
		{StallProb: -1},
		{MaxRetries: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestConfigDefaultsAndActive(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.MaxRetries != 3 || c.RetryBackoff != sim.Millisecond {
		t.Fatalf("retry defaults wrong: %+v", c)
	}
	if c.Active() {
		t.Fatal("zero config reported active")
	}
	if !(Config{StallProb: 0.01}).Active() {
		t.Fatal("stall-only config reported inactive")
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{KindWriteFail, KindCorrupt, KindSlow, KindStall} {
		if s := k.String(); s == "" || s[0] == 'K' {
			t.Fatalf("kind %d has no name: %q", k, s)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatal("unknown kind not reported as such")
	}
}

// Same seed, same opportunity sequence => identical faults; a different
// seed diverges.
func TestPlanDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, WriteFailProb: 0.2, CorruptProb: 0.2, SlowProb: 0.2, StallProb: 0.3}
	mk := func(seed uint64) ([]blockdev.WriteFault, []sim.Time) {
		c := cfg
		c.Seed = seed
		p, err := NewPlan(sim.NewEngine(1, 2), c)
		if err != nil {
			t.Fatal(err)
		}
		var fs []blockdev.WriteFault
		var ss []sim.Time
		for i := 0; i < 200; i++ {
			fs = append(fs, p.BlockWriteFault(i%3, 2000))
			ss = append(ss, p.FlushStall(i%10))
		}
		return fs, ss
	}
	f1, s1 := mk(42)
	f2, s2 := mk(42)
	f3, _ := mk(43)
	same, diverged := true, false
	for i := range f1 {
		if f1[i] != f2[i] || s1[i] != s2[i] {
			same = false
		}
		if f1[i] != f3[i] {
			diverged = true
		}
	}
	if !same {
		t.Fatal("same seed produced different fault sequences")
	}
	if !diverged {
		t.Fatal("different seeds produced identical fault sequences")
	}
	injected := false
	for _, f := range f1 {
		if f.Fail || f.Extra > 0 || f.CorruptMask != 0 {
			injected = true
		}
	}
	if !injected {
		t.Fatal("plan with 20% probabilities injected nothing in 200 draws")
	}
}

// chaosBase is a heavy-enough workload (~150 block writes) that fault
// probabilities of a few percent reliably fire.
func chaosBase(seed uint64) harness.Config {
	return harness.Config{
		Seed: seed,
		LM: core.Params{
			Mode:        core.ModeEphemeral,
			GenSizes:    []int{10, 10},
			Recirculate: false,
		},
		Flush: core.FlushConfig{Drives: 2, Transfer: 5 * sim.Millisecond, NumObjects: 1000},
		Workload: workload.Config{
			Mix:         workload.Mix{{Name: "t", Prob: 1, Lifetime: 300 * sim.Millisecond, NumRecords: 2, RecordSize: 400}},
			ArrivalRate: 100,
			Runtime:     4 * sim.Second,
			NumObjects:  1000,
		},
	}
}

// campaignBase is small (a dozen-odd block writes) so exhaustive crash-point
// sweeps stay fast.
func campaignBase(seed uint64) harness.Config {
	cfg := chaosBase(seed)
	cfg.Workload.ArrivalRate = 40
	cfg.Workload.Runtime = 2 * sim.Second
	cfg.Workload.Mix = workload.Mix{{Name: "t", Prob: 1, Lifetime: 300 * sim.Millisecond, NumRecords: 2, RecordSize: 100}}
	return cfg
}

// hybridBase runs base on the EL-FW hybrid with a long transaction type
// whose records are still live when generation 0 wraps, so head advance
// regenerates them into generation 1.
func hybridBase(base harness.Config) harness.Config {
	base.LM.Mode = core.ModeHybrid
	base.Workload.Mix = workload.Mix{
		{Name: "t", Prob: 0.8, Lifetime: 300 * sim.Millisecond, NumRecords: 2, RecordSize: 100},
		{Name: "long", Prob: 0.2, Lifetime: 1500 * sim.Millisecond, NumRecords: 4, RecordSize: 100},
	}
	return base
}

// A chaos run under transient write failures completes, injects and
// retries faults, keeps the manager's invariants, and — once drained — the
// crash image still recovers exactly the acknowledged commits: retry
// windows have closed, abandoned blocks' committed updates were force
// flushed, so the strict oracle holds again.
func TestChaosRunWriteFailuresKeepAckedCommits(t *testing.T) {
	live, err := harness.Build(chaosBase(7))
	if err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRing(4096)
	live.Setup.LM.SetTracer(ring)
	plan, err := Attach(live.Setup, Config{Seed: 3, WriteFailProb: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	plan.SetTracer(ring)
	live.Setup.Eng.Run(time30())

	ps := plan.Stats()
	if ps.WriteFails == 0 {
		t.Fatal("25% write-failure chaos injected nothing")
	}
	ls := live.Setup.LM.Stats()
	if ls.WriteErrors != ps.WriteFails {
		t.Fatalf("manager saw %d write errors, plan injected %d", ls.WriteErrors, ps.WriteFails)
	}
	if ls.WriteRetries == 0 {
		t.Fatal("no retries despite write failures")
	}
	if ring.Count(trace.EvFault) != ps.WriteFails {
		t.Fatalf("EvFault count %d != injected %d", ring.Count(trace.EvFault), ps.WriteFails)
	}
	if ring.Count(trace.EvRetry) != ls.WriteRetries {
		t.Fatalf("EvRetry count %d != retries %d", ring.Count(trace.EvRetry), ls.WriteRetries)
	}
	if err := live.Setup.LM.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated after chaos: %v", err)
	}
	recovered, _, err := recovery.Recover(live.Setup.Dev, live.Setup.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if live.Gen.Stats().Committed == 0 {
		t.Fatal("no transaction survived the chaos run; test has no power")
	}
	if err := recovery.VerifyOracle(recovered, live.Gen.Oracle()); err != nil {
		t.Fatalf("acked commit lost under write-failure chaos: %v", err)
	}
}

// The hybrid under the same write-failure chaos: the run drains with its
// invariants whole, and recovery returns exactly the acknowledged commits.
func TestChaosHybridWriteFailuresKeepAckedCommits(t *testing.T) {
	live, err := harness.Build(hybridBase(chaosBase(7)))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Attach(live.Setup, Config{Seed: 3, WriteFailProb: 0.25, CorruptProb: 0})
	if err != nil {
		t.Fatal(err)
	}
	live.Setup.Eng.Run(time30())
	ls := live.Setup.LM.Stats()
	if plan.Stats().WriteFails == 0 || ls.Forwarded == 0 || live.Gen.Stats().Committed == 0 {
		t.Fatalf("chaos without power: %d writes failed, %d records forwarded, %d commits",
			plan.Stats().WriteFails, ls.Forwarded, live.Gen.Stats().Committed)
	}
	if err := live.Setup.LM.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated after chaos: %v", err)
	}
	recovered, _, err := recovery.Recover(live.Setup.Dev, live.Setup.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := recovery.VerifyOracle(recovered, live.Gen.Oracle()); err != nil {
		t.Fatalf("acked commit lost under write-failure chaos: %v", err)
	}
}

// Chaos with every fault kind at once: the run completes without panicking
// or violating manager invariants, and all fault kinds actually fire.
func TestChaosRunAllFaultKinds(t *testing.T) {
	live, err := harness.Build(chaosBase(11))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Attach(live.Setup, Config{
		Seed: 5, WriteFailProb: 0.1, CorruptProb: 0.1, SlowProb: 0.2, StallProb: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	live.Setup.Eng.Run(time30())
	ps := plan.Stats()
	if ps.WriteFails == 0 || ps.Corruptions == 0 || ps.Slowdowns == 0 || ps.Stalls == 0 {
		t.Fatalf("not all fault kinds fired: %+v", ps)
	}
	if err := live.Setup.LM.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
	// Corruption may legitimately discard suffixes of durable blocks, so no
	// oracle check here — recovery must merely survive the corrupt image.
	if _, _, err := recovery.Recover(live.Setup.Dev, live.Setup.DB, 0); err != nil {
		t.Fatalf("recovery failed on corrupt image: %v", err)
	}
}

// An attached-but-inert plan (all probabilities zero) leaves the run
// byte-identical to one with no plan at all.
func TestInertPlanIsByteIdentical(t *testing.T) {
	run := func(attach bool) (core.Stats, workload.Stats) {
		live, err := harness.Build(chaosBase(19))
		if err != nil {
			t.Fatal(err)
		}
		if attach {
			if _, err := Attach(live.Setup, Config{Seed: 99}); err != nil {
				t.Fatal(err)
			}
		}
		live.Setup.Eng.Run(time30())
		return live.Setup.LM.Stats(), live.Gen.Stats()
	}
	al, aw := run(false)
	bl, bw := run(true)
	if al.Commits != bl.Commits || al.TotalWrites != bl.TotalWrites ||
		al.Garbage != bl.Garbage || al.Flush.Flushes != bl.Flush.Flushes ||
		aw.Started != bw.Started || aw.Committed != bw.Committed ||
		aw.EndToEndMean != bw.EndToEndMean {
		t.Fatalf("inert plan diverged:\n%v\nvs\n%v", al, bl)
	}
}

func time30() sim.Time { return 30 * sim.Second }
