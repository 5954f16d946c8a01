package fault

import (
	"fmt"
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

// writeFailSweep runs base under transient write failures for every fault
// seed 1–40 at each of three rates. Each run must inject and retry
// faults, keep the manager's invariants, and — once drained — recover
// exactly the acknowledged commits: retry windows have closed, abandoned
// blocks' committed updates were force flushed and the records of
// transactions whose COMMIT was elsewhere were re-logged, so the strict
// oracle holds again. The high rates abandon blocks in most runs, which is
// where a transaction killed with its COMMIT still on its way to disk
// shows up as a lost acknowledged commit. check adds per-run assertions.
func writeFailSweep(t *testing.T, base harness.Config, check func(*harness.Live, *Plan, *trace.Ring) error) {
	t.Helper()
	var runs, abandoned, failed int
	for _, wf := range []float64{0.25, 0.4, 0.5} {
		for seed := uint64(1); seed <= 40; seed++ {
			err := func() error {
				live, err := harness.Build(base)
				if err != nil {
					return err
				}
				ring := trace.NewRing(64)
				live.Setup.LM.SetTracer(ring)
				plan, err := Attach(live.Setup, Config{Seed: seed, WriteFailProb: wf})
				if err != nil {
					return err
				}
				plan.SetTracer(ring)
				live.Setup.Eng.Run(time30())
				ps, ls := plan.Stats(), live.Setup.LM.Stats()
				if ps.WriteFails == 0 || ls.WriteRetries == 0 || live.Gen.Stats().Committed == 0 {
					return fmt.Errorf("chaos without power: %d writes failed, %d retries, %d commits",
						ps.WriteFails, ls.WriteRetries, live.Gen.Stats().Committed)
				}
				if ls.WriteErrors != ps.WriteFails {
					return fmt.Errorf("manager saw %d write errors, plan injected %d", ls.WriteErrors, ps.WriteFails)
				}
				if ls.AbandonedWrites > 0 {
					abandoned++
				}
				if err := check(live, plan, ring); err != nil {
					return err
				}
				if err := live.Setup.LM.CheckInvariants(); err != nil {
					return fmt.Errorf("invariants violated after chaos: %w", err)
				}
				recovered, _, err := recovery.Recover(live.Setup.Dev, live.Setup.DB, 0)
				if err != nil {
					return err
				}
				if err := recovery.VerifyOracle(recovered, live.Gen.Oracle()); err != nil {
					return fmt.Errorf("acked commit lost under write-failure chaos: %w", err)
				}
				return nil
			}()
			runs++
			if err != nil {
				failed++
				t.Errorf("fault seed %d, write-fail %.2f: %v", seed, wf, err)
			}
		}
	}
	if abandoned == 0 {
		t.Fatalf("none of %d runs abandoned a block write; the sweep has no power", runs)
	}
	if failed > 0 {
		t.Errorf("%d of %d runs failed (%d abandoned a block write)", failed, runs, abandoned)
	}
}

func TestChaosRunWriteFailuresKeepAckedCommits(t *testing.T) {
	writeFailSweep(t, chaosBase(7), func(live *harness.Live, plan *Plan, ring *trace.Ring) error {
		if n, want := ring.Count(trace.EvFault), plan.Stats().WriteFails; n != want {
			return fmt.Errorf("EvFault count %d != injected %d", n, want)
		}
		if n, want := ring.Count(trace.EvRetry), live.Setup.LM.Stats().WriteRetries; n != want {
			return fmt.Errorf("EvRetry count %d != retries %d", n, want)
		}
		return nil
	})
}

// The hybrid under the same sweep: its forwarding regenerates whole
// transactions into the failing writes.
func TestChaosHybridWriteFailuresKeepAckedCommits(t *testing.T) {
	forwarded := false
	writeFailSweep(t, hybridBase(chaosBase(7)), func(live *harness.Live, _ *Plan, _ *trace.Ring) error {
		forwarded = forwarded || live.Setup.LM.Stats().Forwarded > 0
		return nil
	})
	if !forwarded {
		t.Fatal("no hybrid run forwarded a record")
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
