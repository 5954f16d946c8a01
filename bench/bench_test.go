package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ellog/internal/core"
	"ellog/internal/sim"
)

const specPath = "../BENCHMARK.json"

// TestSpecMatchesCode pins BENCHMARK.json to the names and units the
// program prints: a metric renamed in one place and not the other would
// otherwise read 0 forever.
func TestSpecMatchesCode(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: direction %q", m.Name, m.Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, perLayerDefs)
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s], lower is better")
	}
}

// TestFullSetTinyScale runs every workload, both passes, at a scale of a
// fraction of a second, through the same runSet the command runs, and reads
// the result file back.
func TestFullSetTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real files and wall-clock timers")
	}
	out := filepath.Join(t.TempDir(), "set.json")
	e := env{seed: 5, seconds: 0.25, scratch: filepath.Join(t.TempDir(), "logs"), tiny: true}
	if code := runSet(e, out, ""); code != 0 {
		t.Fatalf("runSet exited %d: a correctness check failed (see its output)", code)
	}
	set, err := loadSet(out)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Workloads) != len(spec.Workloads) {
		t.Fatalf("result file has %d workloads, BENCHMARK.json %d", len(set.Workloads), len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		got, ok := set.Workloads[w.Name]
		if !ok {
			t.Fatalf("result file lacks workload %s", w.Name)
		}
		sameNames(t, w.Name+" end_to_end", got.EndToEnd, spec.EndToEnd)
		sameNames(t, w.Name+" per_layer", got.PerLayer, spec.PerLayer)
		for _, m := range spec.EndToEnd {
			if got.EndToEnd[m.Name].Value == 0 {
				t.Errorf("%s: %s reads 0; an end-to-end metric must never", w.Name, m.Name)
			}
		}
		if got.EndToEnd["ok_share"].Value != 1 || got.Untraced.Failed != 0 || got.Traced.Failed != 0 {
			t.Errorf("%s: ok_share %v, failed %d untraced and %d traced", w.Name,
				got.EndToEnd["ok_share"].Value, got.Untraced.Failed, got.Traced.Failed)
		}
	}
	// The traced simulated digest must equal the untraced one. runSet
	// already failed the run if not; this pins that both passes produced a
	// digest for the shared seed at all.
	for _, name := range []string{"sim-paper", "sim-search"} {
		w := set.Workloads[name]
		un, _ := w.Untraced.Detail["digests"].(map[string]any)
		tr, _ := w.Traced.Detail["digests"].(map[string]any)
		if un["5"] == nil || un["5"] != tr["5"] {
			t.Errorf("%s: seed 5 digest untraced %v, traced %v", name, un["5"], tr["5"])
		}
	}
	if torn := set.Workloads["recover-scan"].PerLayer["recovery.torn_blocks"].Value; torn != 1 {
		t.Errorf("recover-scan recovered %v torn blocks, want the one final write", torn)
	}
	// A set compared with itself is within every bound; a set whose
	// simulator got 30 % slower is not.
	if code := compareMain([]string{"-spec", specPath, out, out}); code != 0 {
		t.Errorf("compare of a set with itself exited %d", code)
	}
	w := set.Workloads["sim-paper"]
	m := w.EndToEnd["sim_speed_x"]
	m.Value *= 0.7
	w.EndToEnd["sim_speed_x"] = m
	slower := filepath.Join(t.TempDir(), "slower.json")
	raw, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(slower, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := compareMain([]string{"-spec", specPath, out, slower}); code != 1 {
		t.Errorf("compare against a 30 %% slower simulator exited %d, want 1", code)
	}
}

func sameNames(t *testing.T, what string, got map[string]measured, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics in the result file, %d in BENCHMARK.json", what, len(got), len(want))
	}
	for _, m := range want {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("%s: %s [%s] missing or in another unit (%q)", what, m.Name, m.Unit, g.Unit)
		}
	}
}

// TestPacedScheduleHasNoDrift drives the paced driver on a simulation
// engine, where a timer fires exactly when it is due: every action must run
// at its due time to the microsecond, and the offered rate must be the
// configured one. On a wall clock the same schedule can only run late by
// what the loop's timers add, never by accumulated drift.
func TestPacedScheduleHasNoDrift(t *testing.T) {
	p, err := pacedParams(2)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(7, 7^0x9e3779b97f4a7c15)
	setup, err := core.NewSetup(eng,
		core.Params{GenSizes: p.Gens, Recirculate: p.Recirculate, GroupCommitTimeout: p.GroupCommitTimeout},
		core.FlushConfig{Drives: p.FlushDrives, Transfer: p.FlushTransfer, NumObjects: p.NumObjects})
	if err != nil {
		t.Fatal(err)
	}
	horizon := 2 * sim.Second
	d := newPacedDriver(eng, setup.LM, eng.Rand(), p.Mix, p.Rate, horizon, p.NumObjects)
	d.start()
	eng.Run(horizon + sim.Second)
	if !d.idle() {
		t.Fatalf("driver not idle a second past the horizon: %+v", d.counts())
	}
	if len(d.lateUS) != len(d.actions) {
		t.Fatalf("%d lateness samples for %d actions", len(d.lateUS), len(d.actions))
	}
	for i, late := range d.lateUS {
		if late != 0 {
			t.Fatalf("action %d ran %v µs late on a simulation engine", i, late)
		}
	}
	c := d.counts()
	if want := int(p.Rate * horizon.Seconds()); c.begun != want || c.acked != want {
		t.Errorf("begun %d, acknowledged %d, want %d of each", c.begun, c.acked, want)
	}
	if ls := d.loadStats(); ls.offeredPerSec != p.Rate {
		t.Errorf("offered %v tx/s, want %v", ls.offeredPerSec, p.Rate)
	}
}

// TestClosedLoopKeepsClientsBusy checks the closed-loop driver's invariant:
// never more transactions outstanding than clients, and every client starts
// its next transaction once acknowledged.
func TestClosedLoopKeepsClientsBusy(t *testing.T) {
	p := saturateParams(env{seconds: 1})
	eng := sim.NewEngine(3, 4)
	setup, err := core.NewSetup(eng,
		core.Params{GenSizes: p.Gens, Recirculate: p.Recirculate, GroupCommitTimeout: p.GroupCommitTimeout},
		core.FlushConfig{Drives: p.FlushDrives, Transfer: p.FlushTransfer, NumObjects: p.NumObjects})
	if err != nil {
		t.Fatal(err)
	}
	horizon := 200 * sim.Millisecond
	d := newClosedDriver(eng, setup.LM, eng.Rand(), 8, p.RecsPerTx, p.RecBytes, horizon, p.NumObjects, 1<<12)
	d.start()
	eng.Run(horizon + sim.Second)
	c := d.counts()
	if !d.idle() || c.unacked != 0 || c.killed != 0 {
		t.Fatalf("after the drain: idle=%v %+v", d.idle(), c)
	}
	// Each acknowledgement takes the 15 ms simulated block write, after the
	// 5 ms group-commit timeout seals the block: 8 clients make 8
	// transactions per 20 ms round.
	if c.begun < 8*int(horizon/(20*sim.Millisecond)) {
		t.Errorf("8 clients began only %d transactions in %v", c.begun, horizon)
	}
	seen := map[uint64]bool{}
	for oid := range d.oracle() {
		seen[uint64(oid)] = true
	}
	if len(seen) != 2*c.acked {
		t.Errorf("oracle holds %d objects for %d acknowledged two-record transactions", len(seen), c.acked)
	}
}
