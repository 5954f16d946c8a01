package fault

import (
	"reflect"
	"testing"

	"ellog/internal/harness"
	"ellog/internal/runner"
	"ellog/internal/trace"
)

func TestCampaignRejectsRecirculation(t *testing.T) {
	cfg := CampaignConfig{Base: campaignBase(1)}
	cfg.Base.LM.Recirculate = true
	if _, err := RunCampaign(cfg, nil); err == nil {
		t.Fatal("recirculating base accepted")
	}
}

func TestCampaignRejectsBadFracs(t *testing.T) {
	cfg := CampaignConfig{Base: campaignBase(1), TornFracs: []float64{1.5}}
	if _, err := RunCampaign(cfg, nil); err == nil {
		t.Fatal("torn fraction > 1 accepted")
	}
}

// The tentpole property: at every crash point — after each block-write
// completion and at torn boundaries inside each issued write — single-pass
// recovery reconstructs exactly the acknowledged transactions (plus, at
// torn points, commit-pending transactions whose COMMIT survived the
// salvaged prefix).
func TestCampaignPropertyHolds(t *testing.T) {
	cfg := CampaignConfig{Base: campaignBase(23), TornFracs: []float64{0.25, 0.6, 1}}
	res, err := RunCampaign(cfg, runner.New(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Seals == 0 || res.Durables == 0 {
		t.Fatalf("reference run wrote nothing: %+v", res)
	}
	if res.Points != res.Durables+3*res.Seals {
		t.Fatalf("swept %d points, want %d clean + %d torn", res.Points, res.Durables, 3*res.Seals)
	}
	if res.TornDetected == 0 {
		t.Fatal("no torn block was ever detected; the checksum path was not exercised")
	}
	if !res.Passed() {
		t.Fatalf("recovery property violated:\n%v", res)
	}
}

// The hybrid is crash-recoverable: the property holds at every crash point
// of a run whose head advance regenerates long transactions into the last
// generation.
func TestCampaignHybridPropertyHolds(t *testing.T) {
	base := hybridBase(campaignBase(23))
	base.LM.GenSizes = []int{4, 8}
	ref, err := harness.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.LM.Forwarded == 0 {
		t.Fatalf("nothing forwarded; the campaign would not exercise regeneration:\n%s", ref.LM)
	}
	res, err := RunCampaign(CampaignConfig{Base: base}, runner.New(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean == 0 || res.Torn == 0 || !res.Passed() {
		t.Fatalf("hybrid recovery property violated:\n%v", res)
	}
}

// A parallel campaign must be byte-identical to a sequential one: the pool
// only schedules, it never reorders or perturbs results.
func TestCampaignParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("two full sweeps; skipped in -short")
	}
	cfg := CampaignConfig{Base: campaignBase(29), MaxPoints: 40}
	seq, err := RunCampaign(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCampaign(cfg, runner.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel and sequential campaigns diverged:\n%+v\nvs\n%+v", seq, par)
	}
}

// TracePoint replays one point with a sink attached: the sink must see
// the event stream up to the crash, and the verdict must match the
// campaign's own run of the same point.
func TestTracePointStreamsEvents(t *testing.T) {
	cfg := CampaignConfig{Base: campaignBase(23)}
	var got []trace.Event
	sink := trace.Func(func(e trace.Event) { got = append(got, e) })
	rres, verr, berr := TracePoint(cfg, Point{Kind: PointClean, K: 3}, sink)
	if berr != nil {
		t.Fatal(berr)
	}
	if verr != nil {
		t.Fatalf("clean point 3 violated the property: %v", verr)
	}
	if rres.BlocksRead == 0 {
		t.Fatal("recovery read nothing")
	}
	durables, lastDur := 0, -1
	for i, e := range got {
		if e.Kind == trace.EvDurable {
			durables++
			lastDur = i
		}
	}
	if durables != 3 {
		t.Fatalf("sink saw %d durables, want exactly 3 (crash at the 3rd)", durables)
	}
	// Stop() fires inside the 3rd durable's dispatch, so anything after it
	// is that event's synchronous effects (acks) at the same instant.
	for _, e := range got[lastDur:] {
		if e.At != got[lastDur].At {
			t.Fatalf("event %v dispatched after the crash trigger", e)
		}
	}
}

// MaxPoints samples the sweep but still spans it: the last sampled point
// must come from the tail of the full list.
func TestCampaignMaxPointsSpansRun(t *testing.T) {
	cfg := CampaignConfig{Base: campaignBase(31), MaxPoints: 10}
	res, err := RunCampaign(cfg, runner.New(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Points == 0 || res.Points > 10+1 {
		t.Fatalf("sampled %d points, want <= ~10", res.Points)
	}
	if res.Clean == 0 || res.Torn == 0 {
		t.Fatalf("sampling dropped a whole point kind: clean=%d torn=%d", res.Clean, res.Torn)
	}
	if !res.Passed() {
		t.Fatalf("sampled campaign failed:\n%v", res)
	}
}
