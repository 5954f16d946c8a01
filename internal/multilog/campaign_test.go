package multilog

import (
	"fmt"
	"testing"

	"ellog/internal/runner"
	"ellog/internal/sim"
)

// smallCampaign is smallPDES cut to two simulated seconds, so exhaustive
// crash sweeps stay within test budgets.
func smallCampaign(shards int, crossFrac float64, seed uint64) PDESConfig {
	cfg := smallPDES(shards, 1, crossFrac, seed)
	cfg.Workload.Runtime = 2 * sim.Second
	return cfg
}

// TestCrossCampaignAtomicity sweeps crash points across the whole run —
// in particular through every 2PC window — and demands that recovery never
// splits a cross-shard transaction: committed on all its shards or absent
// from all of them.
func TestCrossCampaignAtomicity(t *testing.T) {
	res, err := RunCrossCampaign(CrossCampaignConfig{
		Base:      smallCampaign(3, 0.3, 1),
		MaxPoints: 200,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("atomicity violated:\n%s", res)
	}
	if res.CrossCommitted == 0 {
		t.Fatal("campaign base committed no cross-shard transactions — sweep proves nothing")
	}
	// The sweep must actually have landed inside the 2PC window, both ways:
	// crashes after a PREPARE but before the decision (presumed abort, the
	// coordinator-crash case) and crashes after the DECIDE with the
	// participant still in doubt (resolved commit).
	if res.ResolvedAbort == 0 {
		t.Fatalf("no crash point exercised presumed abort: %s", res)
	}
	if res.ResolvedCommit == 0 {
		t.Fatalf("no crash point exercised in-doubt commit resolution: %s", res)
	}
}

// TestCrossCampaignParallelMatchesSequential runs the same sweep with and
// without a worker pool; point outcomes are assembled in point order, so
// the results must be byte-identical.
func TestCrossCampaignParallelMatchesSequential(t *testing.T) {
	cfg := CrossCampaignConfig{Base: smallCampaign(2, 0.25, 3), MaxPoints: 60}
	seq, err := RunCrossCampaign(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCrossCampaign(cfg, runner.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", seq) != fmt.Sprintf("%+v", par) {
		t.Fatalf("parallel campaign diverged from sequential:\n--- sequential\n%+v\n--- parallel\n%+v", seq, par)
	}
}
