package runner

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"ellog/internal/core"
	"ellog/internal/harness"
	"ellog/internal/sim"
)

// tinyConfig is a fast complete run: a couple of simulated seconds over a
// small object space.
func tinyConfig(seed uint64, genBlocks int) harness.Config {
	cfg := harness.PaperDefaults(0.05)
	cfg.Seed = seed
	cfg.LM = core.Params{Mode: core.ModeFirewall, GenSizes: []int{genBlocks}}
	cfg.Workload.Runtime = 2 * sim.Second
	cfg.Workload.NumObjects = 10_000
	cfg.Flush.NumObjects = 10_000
	return cfg
}

func TestKeyIdentity(t *testing.T) {
	a, b := tinyConfig(1, 200), tinyConfig(1, 200)
	if Key(a) != Key(b) {
		t.Fatal("identical configs produced different keys")
	}
	for _, other := range []harness.Config{
		tinyConfig(2, 200), // seed differs
		tinyConfig(1, 201), // generation size differs
	} {
		if Key(a) == Key(other) {
			t.Fatalf("distinct configs share a key: %s", Key(other))
		}
	}
	// Mutating a slice element must change the key (no aliasing traps).
	c := tinyConfig(1, 200)
	c.LM.GenSizes = []int{150, 50}
	if Key(a) == Key(c) {
		t.Fatal("gen-size split not reflected in key")
	}
}

func TestRunMatchesSequential(t *testing.T) {
	cfg := tinyConfig(3, 150)
	want, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(4).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
		t.Fatalf("pooled result diverged:\n got %#v\nwant %#v", got, want)
	}
}

func TestMemoization(t *testing.T) {
	p := New(2)
	cfg := tinyConfig(4, 150)
	first, err := p.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%#v", first) != fmt.Sprintf("%#v", second) {
		t.Fatal("cached result differs from original")
	}
	if runs, hits := p.Stats(); runs != 1 || hits != 1 {
		t.Fatalf("runs=%d hits=%d, want 1/1", runs, hits)
	}
}

func TestRunAllOrderedAndDeterministic(t *testing.T) {
	cfgs := []harness.Config{
		tinyConfig(1, 150), tinyConfig(2, 150), tinyConfig(3, 150),
		tinyConfig(1, 150), // duplicate: must be served by the cache
	}
	var want []harness.Result
	for _, cfg := range cfgs {
		r, err := harness.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	p := New(4)
	got, err := p.RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if fmt.Sprintf("%#v", got[i]) != fmt.Sprintf("%#v", want[i]) {
			t.Fatalf("result %d diverged from sequential run", i)
		}
	}
	if runs, hits := p.Stats(); runs != 3 || hits != 1 {
		t.Fatalf("runs=%d hits=%d, want 3 runs and 1 cache hit", runs, hits)
	}
}

func TestRunAllReportsLowestIndexError(t *testing.T) {
	bad := tinyConfig(1, 150)
	bad.LM.GenSizes = nil // invalid: no generations
	bad2 := tinyConfig(2, 150)
	bad2.LM.GenSizes = []int{-5}
	cfgs := []harness.Config{tinyConfig(3, 150), bad, bad2}

	p := New(4)
	_, perr := p.RunAll(cfgs)
	if perr == nil {
		t.Fatal("invalid configs produced no error")
	}
	_, serr := (*Pool)(nil).RunAll(cfgs)
	if serr == nil || perr.Error() != serr.Error() {
		t.Fatalf("parallel error %q != sequential error %q", perr, serr)
	}
}

func TestForEachRunsEveryTask(t *testing.T) {
	const n = 17
	var ran [n]atomic.Bool
	sentinel := errors.New("task 3 failed")
	err := New(4).ForEach(n, func(i int) error {
		ran[i].Store(true)
		switch i {
		case 3:
			return sentinel
		case 9:
			return errors.New("task 9 failed")
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the lowest-index error", err)
	}
	for i := range ran {
		if !ran[i].Load() {
			t.Fatalf("task %d never ran despite earlier failure", i)
		}
	}
}

func TestNilPoolFallsBackToSequential(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool workers = %d, want 1", p.Workers())
	}
	cfg := tinyConfig(5, 150)
	want, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
		t.Fatal("nil-pool Run diverged from harness.Run")
	}
	order := []int{}
	if err := p.ForEach(4, func(i int) error { order = append(order, i); return nil }); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Fatalf("nil-pool ForEach order %v, want strictly sequential", order)
	}
	ran := false
	if err := p.Do(func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatal("nil-pool Do did not run the function")
	}
	if runs, hits := p.Stats(); runs != 0 || hits != 0 {
		t.Fatal("nil pool reported stats")
	}
}

func TestDoBoundsConcurrency(t *testing.T) {
	p := New(2)
	var cur, peak atomic.Int64
	err := p.ForEach(8, func(int) error {
		return p.Do(func() error {
			n := cur.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			cur.Add(-1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > 2 {
		t.Fatalf("peak concurrency %d exceeds pool bound 2", got)
	}
}

// TestConcurrentJoinersShareOneRun exercises the in-flight dedup: many
// goroutines requesting the same config must trigger exactly one
// simulation.
func TestConcurrentJoinersShareOneRun(t *testing.T) {
	p := New(4)
	cfg := tinyConfig(6, 150)
	if err := p.ForEach(12, func(int) error {
		_, err := p.Run(cfg)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if runs, hits := p.Stats(); runs != 1 || hits != 11 {
		t.Fatalf("runs=%d hits=%d, want exactly one simulation", runs, hits)
	}
}

// insufficientConfig is a firewall log that holds half a second of the
// paper mix, whose transactions live a second or more: the first kill comes
// early in the run.
func insufficientConfig() harness.Config { return tinyConfig(3, 5) }

// TestRunNeverServedATruncatedProbe is the cache-poisoning guard: a probe
// that stopped at its verdict must not answer a later Run of the same
// config, while a complete run answers probes, and a probe that turned out
// sufficient — a complete run under another name — answers both.
func TestRunNeverServedATruncatedProbe(t *testing.T) {
	cfg := insufficientConfig()
	p := New(2)
	probe, err := p.Probe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !probe.Insufficient() || probe.LM.Elapsed >= cfg.Workload.Runtime {
		t.Fatalf("probe of a 5-block firewall: insufficient=%v after %v", probe.Insufficient(), probe.LM.Elapsed)
	}
	full, err := p.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.LM.Elapsed != cfg.Workload.Runtime || !full.Insufficient() {
		t.Fatalf("Run after an early-stopped probe ended at %v (horizon %v), insufficient=%v",
			full.LM.Elapsed, cfg.Workload.Runtime, full.Insufficient())
	}
	if want, _ := harness.Run(cfg); !reflect.DeepEqual(full, want) {
		t.Fatal("Run after an early-stopped probe differs from harness.Run")
	}
	if runs, hits := p.Stats(); runs != 2 || hits != 0 {
		t.Fatalf("probe then Run: %d simulations, %d cache hits, want 2 and 0", runs, hits)
	}
	// From here on the complete run answers both.
	if again, _ := p.Probe(cfg); !reflect.DeepEqual(again, full) {
		t.Fatal("repeated probe not answered by the complete run")
	}
	if again, _ := p.Run(cfg); !reflect.DeepEqual(again, full) {
		t.Fatal("repeated Run not answered by the first")
	}
	if runs, hits := p.Stats(); runs != 2 || hits != 2 {
		t.Fatalf("after repeating both: %d simulations, %d cache hits, want 2 and 2", runs, hits)
	}

	// The other order: a complete run answers the probe.
	p = New(2)
	full, _ = p.Run(cfg)
	if got, _ := p.Probe(cfg); !reflect.DeepEqual(got, full) {
		t.Fatal("probe after a complete run was not answered by it")
	}
	// A sufficient probe is a complete run and answers Run.
	ok := tinyConfig(4, 64)
	first, _ := p.Probe(ok)
	if first.Insufficient() || first.LM.Elapsed != ok.Workload.Runtime {
		t.Fatalf("probe of a generous log: insufficient=%v, ended at %v", first.Insufficient(), first.LM.Elapsed)
	}
	if got, _ := p.Run(ok); !reflect.DeepEqual(got, first) {
		t.Fatal("Run after a sufficient probe was not answered by it")
	}
	if runs, hits := p.Stats(); runs != 2 || hits != 2 {
		t.Fatalf("second pool: %d simulations, %d cache hits, want 2 and 2", runs, hits)
	}
}

// TestNilPoolProbeIsHarnessProbe: the sequential fallback ends at the
// verdict too.
func TestNilPoolProbeIsHarnessProbe(t *testing.T) {
	cfg := insufficientConfig()
	var p *Pool
	got, err := p.Probe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := harness.Probe(cfg); !reflect.DeepEqual(got, want) {
		t.Fatal("nil-pool Probe differs from harness.Probe")
	}
}

// TestConcurrentProbesAndRunsOfOneConfig races Probe against Run on one
// insufficient config: whatever the interleaving, every Run sees the
// horizon, every caller the same verdict, and at most two simulations run —
// one stopped early, one complete.
func TestConcurrentProbesAndRunsOfOneConfig(t *testing.T) {
	cfg := insufficientConfig()
	p := New(4)
	results := make([]harness.Result, 16)
	if err := p.ForEach(len(results), func(i int) (err error) {
		if i%2 == 0 {
			results[i], err = p.Probe(cfg)
		} else {
			results[i], err = p.Run(cfg)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Insufficient() {
			t.Fatalf("caller %d: a 5-block firewall reported sufficient", i)
		}
		if i%2 == 1 && r.LM.Elapsed != cfg.Workload.Runtime {
			t.Fatalf("Run %d was handed a result that ends at %v, horizon %v", i, r.LM.Elapsed, cfg.Workload.Runtime)
		}
	}
	if runs, hits := p.Stats(); runs < 1 || runs > 2 || runs+hits != uint64(len(results)) {
		t.Fatalf("%d simulations and %d cache hits for %d callers", runs, hits, len(results))
	}
}
