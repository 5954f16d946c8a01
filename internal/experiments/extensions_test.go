package experiments

import (
	"strings"
	"testing"

	"ellog/internal/sim"
)

func TestHintsReduceForwarding(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scaled-down experiments; skipped with -short (the race job)")
	}
	o := quick()
	o.Mixes = []float64{0.05}
	r, err := Hints(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.HintForward >= r.BaseForward {
		t.Fatalf("hints did not reduce forwarding: %d vs %d", r.HintForward, r.BaseForward)
	}
	if r.MinGen0Hints >= r.MinGen0NoHints {
		t.Fatalf("hints did not shrink generation 0: %d vs %d", r.MinGen0Hints, r.MinGen0NoHints)
	}
	if !strings.Contains(FormatHints(r), "hint") {
		t.Fatal("format missing title")
	}
}

func TestChainDepthPaysOffOnWideLifetimes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scaled-down experiments; skipped with -short (the race job)")
	}
	o := Options{Seed: 1, Runtime: 120 * sim.Second, NumObjects: 1_000_000}
	r, err := Chain(o)
	if err != nil {
		t.Fatal(err)
	}
	three := r.Three[0] + r.Three[1] + r.Three[2]
	t.Logf("FW=%d EL2=%d EL3=%d (%v)", r.FWBlocks, r.Two.Total, three, r.Three)
	if r.Two.Total >= r.FWBlocks {
		t.Fatalf("EL2 (%d) not below FW (%d)", r.Two.Total, r.FWBlocks)
	}
	// With 60 s transactions in the mix, FW needs an enormous log; the
	// segmented log's advantage explodes with the lifetime spread (the
	// paper: "the longer the lifetimes ... the greater is the reduction").
	if r.FWBlocks < 5*r.Two.Total {
		t.Fatalf("wide lifetimes should hurt FW much more: FW=%d EL2=%d", r.FWBlocks, r.Two.Total)
	}
	// A recirculating last generation already packs mixed lifetimes well,
	// so the third generation buys little space here — it must simply not
	// cost much. (Its real payoff is operational: per-lifetime-class
	// isolation and, with hints, bandwidth.)
	if three > r.Two.Total+r.Two.Total/6 {
		t.Fatalf("third generation cost too much space: %d vs %d", three, r.Two.Total)
	}
	if !strings.Contains(FormatChain(r), "Generation depth") {
		t.Fatal("format missing title")
	}
}

func TestHybridCompareShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scaled-down experiments; skipped with -short (the race job)")
	}
	o := Options{Seed: 1, Runtime: 50 * sim.Second, NumObjects: 1_000_000, Mixes: []float64{0.05}}
	r, err := HybridCompare(o)
	if err != nil {
		t.Fatal(err)
	}
	fw, el, hyb := r.Runs[0].LM, r.Runs[1].LM, r.Runs[2].LM
	if r.Runs[2].Insufficient() {
		t.Fatalf("hybrid row at %v is insufficient:\n%s", r.Sizes[2], hyb)
	}
	if el.TotalBlocks >= fw.TotalBlocks {
		t.Fatalf("EL blocks %d not below FW %d", el.TotalBlocks, fw.TotalBlocks)
	}
	// Section 6's trade: less space than FW and far less memory than EL,
	// paid for in bandwidth above FW's pure appends.
	t.Run("tradeoffs", func(t *testing.T) {
		if hyb.TotalBlocks >= fw.TotalBlocks {
			t.Fatalf("hybrid blocks %d not below FW %d", hyb.TotalBlocks, fw.TotalBlocks)
		}
		// The memory saving is "drastic" when transactions update many
		// objects.
		if hyb.MemPeakBytes >= el.MemPeakBytes/2 {
			t.Fatalf("hybrid memory %.0f not below half of EL's %.0f", hyb.MemPeakBytes, el.MemPeakBytes)
		}
		if hyb.TotalBandwidth <= fw.TotalBandwidth {
			t.Fatalf("hybrid bandwidth %.2f not above FW's pure appends %.2f", hyb.TotalBandwidth, fw.TotalBandwidth)
		}
	})
	if hyb.Forwarded+hyb.Recirculated == 0 {
		t.Fatal("hybrid never moved a record")
	}
	if !strings.Contains(FormatHybridCompare(r), "hybrid") {
		t.Fatal("format missing title")
	}
}

func TestAdaptiveExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scaled-down experiments; skipped with -short (the race job)")
	}
	o := Options{Seed: 1, Runtime: 200 * sim.Second, NumObjects: 1_000_000, Mixes: []float64{0.05}}
	r, err := Adaptive(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.LateKills != 0 {
		t.Fatalf("%d kills after convergence", r.LateKills)
	}
	total := r.FinalSizes[0] + r.FinalSizes[1]
	if total > 2*r.OfflineMin {
		t.Fatalf("adaptive total %d more than 2x offline minimum %d", total, r.OfflineMin)
	}
	if r.Grown == 0 {
		t.Fatal("controller never grew from an undersized start")
	}
	if !strings.Contains(FormatAdaptive(r), "Adaptive") {
		t.Fatal("format missing title")
	}
}

func TestArrivalSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scaled-down experiments; skipped with -short (the race job)")
	}
	o := quick()
	o.Mixes = []float64{0.05}
	points, err := ArrivalSensitivity(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	det, poi, bur := points[0], points[1], points[2]
	// Variability costs space: deterministic <= poisson <= bursty, with
	// bursty clearly above deterministic for both techniques.
	if bur.FWBlocks <= det.FWBlocks {
		t.Fatalf("bursty FW %d not above deterministic %d", bur.FWBlocks, det.FWBlocks)
	}
	if bur.ELBlocks <= det.ELBlocks {
		t.Fatalf("bursty EL %d not above deterministic %d", bur.ELBlocks, det.ELBlocks)
	}
	if poi.FWBlocks < det.FWBlocks {
		t.Fatalf("poisson FW %d below deterministic %d", poi.FWBlocks, det.FWBlocks)
	}
	// EL keeps beating FW under every process.
	for _, p := range points {
		if p.ELBlocks >= p.FWBlocks {
			t.Fatalf("%v: EL %d not below FW %d", p.Process, p.ELBlocks, p.FWBlocks)
		}
	}
	if !strings.Contains(FormatArrivals(points), "Arrival") {
		t.Fatal("format missing title")
	}
}

func TestStealAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scaled-down experiments; skipped with -short (the race job)")
	}
	o := quick()
	o.Mixes = []float64{0.05}
	r, err := Steal(o)
	if err != nil {
		t.Fatal(err)
	}
	// Steal pays extra stable-database writes (stolen flush + commit-time
	// clean) for the same workload.
	if r.StealFlush <= r.NoStealFlush {
		t.Fatalf("steal did not increase DB writes: %d vs %d", r.StealFlush, r.NoStealFlush)
	}
	// And the log itself must remain workable: the steal minimum stays in
	// the same ballpark (stolen records live a little longer).
	if r.MinTotalS > r.MinTotalNS*2 {
		t.Fatalf("steal blew up the log: %d vs %d blocks", r.MinTotalS, r.MinTotalNS)
	}
	if !strings.Contains(FormatSteal(r), "steal") {
		t.Fatal("format missing title")
	}
}

func TestScaleLinearThroughputFlatRecovery(t *testing.T) {
	o := Options{Seed: 1, Runtime: 30 * sim.Second, NumObjects: 8_000_000}
	points, err := Scale(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("%d points", len(points))
	}
	one, eight := points[0], points[3]
	if one.Insufficient || eight.Insufficient {
		t.Fatalf("budgets insufficient: %+v", points)
	}
	// Linear throughput: 8 partitions sustain ~8x the commits.
	if eight.TPS < one.TPS*7 {
		t.Fatalf("throughput did not scale: %0.1f -> %0.1f commit/s", one.TPS, eight.TPS)
	}
	// Flat parallel recovery: within 1.5x of a single partition's pass,
	// while the serial total grows ~8x.
	if eight.RecoveryPar > one.RecoveryPar*3/2 {
		t.Fatalf("parallel recovery grew: %v -> %v", one.RecoveryPar, eight.RecoveryPar)
	}
	if eight.RecoverySer < one.RecoverySer*6 {
		t.Fatalf("serial recovery should grow with partitions: %v -> %v", one.RecoverySer, eight.RecoverySer)
	}
	if !strings.Contains(FormatScale(points), "Shared-nothing") {
		t.Fatal("format missing title")
	}
}
