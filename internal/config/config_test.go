package config

import (
	"os"
	"path/filepath"
	"testing"

	"ellog/internal/core"
	"ellog/internal/harness"
	"ellog/internal/multilog"
	"ellog/internal/sim"
)

func TestDefaultRoundTripsThroughJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	if err := Default().Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Mode != "el" || len(loaded.Generations) != 2 || loaded.ArrivalRate != 100 {
		t.Fatalf("round trip lost fields: %+v", loaded)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/cfg.json"); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestLoadBadJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := writeFile(path, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("bad JSON loaded")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestFaultsRoundTripAndConversion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	cfg := Default()
	cfg.Faults = &FaultsJSON{
		Seed: 7, WriteFailProb: 0.1, SlowProb: 0.2, SlowMaxMS: 10,
		StallProb: 0.05, StallMaxMS: 20, MaxRetries: 4, RetryBackoffMS: 2,
	}
	if err := cfg.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Faults == nil || *loaded.Faults != *cfg.Faults {
		t.Fatalf("faults section lost in round trip: %+v", loaded.Faults)
	}
	fc := loaded.Faults.ToFault()
	if fc.Seed != 7 || fc.WriteFailProb != 0.1 || fc.SlowMax != 10*sim.Millisecond ||
		fc.StallMax != 20*sim.Millisecond || fc.MaxRetries != 4 || fc.RetryBackoff != 2*sim.Millisecond {
		t.Fatalf("conversion wrong: %+v", fc)
	}
	if !fc.Active() {
		t.Fatal("converted config should be active")
	}

	// A config with no faults section stays that way through a round trip.
	plain := Default()
	if err := plain.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Faults != nil {
		t.Fatalf("faults section materialized from nothing: %+v", loaded.Faults)
	}
}

func TestToHarnessConversion(t *testing.T) {
	cfg := Default()
	cfg.LifetimeHintsMS = []int64{2000}
	cfg.GroupCommitTimeoutMS = 50
	h, err := cfg.ToHarness()
	if err != nil {
		t.Fatal(err)
	}
	if h.LM.Mode != core.ModeEphemeral {
		t.Fatal("mode wrong")
	}
	if h.LM.GroupCommitTimeout != 50*sim.Millisecond {
		t.Fatal("group commit timeout wrong")
	}
	if len(h.LM.HintBoundaries) != 1 || h.LM.HintBoundaries[0] != 2*sim.Second {
		t.Fatal("hints wrong")
	}
	if !h.Workload.Hints {
		t.Fatal("workload hints not enabled")
	}
	if h.Workload.Runtime != 500*sim.Second {
		t.Fatalf("runtime %v", h.Workload.Runtime)
	}
	if h.Flush.Transfer != 25*sim.Millisecond || h.Flush.Drives != 10 {
		t.Fatal("flush config wrong")
	}
}

func TestToHarnessRejectsBadMode(t *testing.T) {
	cfg := Default()
	cfg.Mode = "wal"
	if _, err := cfg.ToHarness(); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestToHarnessRejectsBadMix(t *testing.T) {
	cfg := Default()
	cfg.Mix[0].Prob = 0.1 // sums to 0.15
	if _, err := cfg.ToHarness(); err == nil {
		t.Fatal("bad pdf accepted")
	}
}

func TestDefaultConfigRuns(t *testing.T) {
	cfg := Default()
	cfg.RuntimeS = 5
	cfg.NumObjects = 1_000_000
	h, err := cfg.ToHarness()
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.Run(h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload.Started != 500 {
		t.Fatalf("started %d, want 500", res.Workload.Started)
	}
}

// TestToPDESAcceptsFaultsAndOneShard: a configuration without a shard
// count is a 1-shard run, and a faults section converts on a sharded
// configuration like on any other — the plan is attached per shard.
func TestToPDESAcceptsFaultsAndOneShard(t *testing.T) {
	cfg := Default()
	cfg.Faults = &FaultsJSON{Seed: 1, WriteFailProb: 0.1}
	pcfg, err := cfg.ToPDES()
	if err != nil {
		t.Fatal(err)
	}
	if pcfg.Shards != 1 || pcfg.Flush.NumObjects != cfg.NumObjects {
		t.Fatalf("unsharded config = %d shards of %d objects, want 1 of %d", pcfg.Shards, pcfg.Flush.NumObjects, cfg.NumObjects)
	}
	cfg.Shards = 2
	if pcfg, err = cfg.ToPDES(); err != nil || pcfg.Shards != 2 {
		t.Fatalf("sharded faulty config: %d shards, %v", pcfg.Shards, err)
	}
	cfg.Shards = -1
	if _, err := cfg.ToPDES(); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

// TestToPDESArrivalRatePerShard pins what one configuration means on a
// sharded run: arrival_rate_tps is every shard's rate, not the machine's,
// and cross_shard_frac is a share of each shard's arrivals — so the
// machine starts Shards × ArrivalRate × runtime transactions, a CrossFrac
// share of them cross-shard.
func TestToPDESArrivalRatePerShard(t *testing.T) {
	cfg := Default()
	cfg.Shards = 4
	cfg.CrossFrac = 0.25
	cfg.RuntimeS = 2
	cfg.NumObjects = 4000
	cfg.FlushDrives = 2
	cfg.GroupCommitTimeoutMS = 20
	pcfg, err := cfg.ToPDES()
	if err != nil {
		t.Fatal(err)
	}
	if pcfg.Workload.ArrivalRate != cfg.ArrivalRate || pcfg.CrossFrac != 0.25 || pcfg.Flush.NumObjects != 1000 {
		t.Fatalf("ToPDES = rate %v, cross %v, %d objects per shard; want %v, 0.25, 1000",
			pcfg.Workload.ArrivalRate, pcfg.CrossFrac, pcfg.Flush.NumObjects, cfg.ArrivalRate)
	}
	_, st, err := multilog.RunPDES(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Arrival intervals truncate to whole nanoseconds, so a generator may
	// fit one extra arrival before the horizon.
	if got := st.Started + st.CrossStarted; got < 800 || got > 804 {
		t.Fatalf("4 shards at 100 TPS for 2 s started %d transactions, want 800", got)
	}
	if st.CrossStarted != 200 {
		t.Fatalf("%d cross-shard starts, want a quarter of 800", st.CrossStarted)
	}
}
