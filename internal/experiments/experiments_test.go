package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ellog/internal/sim"
)

// quick scales the frame down so every experiment runs in seconds while
// preserving the paper's qualitative shapes. It is also the canonical
// frame the model metrics are pinned at (seed 1, 40 s, 10^6 objects).
func quick() Options {
	return Options{
		Seed:       1,
		Runtime:    40 * sim.Second,
		NumObjects: 1_000_000,
		Mixes:      []float64{0.05, 0.20, 0.40},
	}
}

// pinInt and pinFloat are the model-metric regression gate. Every value
// an experiment derives from simulation is a pure function of seed and
// frame, so the pinned literals are exact: any change to one is a change
// to the model and must be explained, never absorbed by a tolerance.
// Floats get 1e-9 relative slack only because arm64 may fuse a
// multiply-add. Metrics are named suite/metric, and a failure says name,
// got and pinned.
func pinInt[T int | uint64](t *testing.T, metric string, got, want T) {
	t.Helper()
	if got != want {
		t.Errorf("%s = %d, pinned %d", metric, got, want)
	}
}

func pinFloat(t *testing.T, metric string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Errorf("%s = %v, pinned %v", metric, got, want)
	}
}

func TestFig456Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scaled-down experiments; skipped with -short (the race job)")
	}
	points, err := Fig456(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points, want 3", len(points))
	}
	// Figure 4 shape: EL always needs less space; the advantage shrinks as
	// the long fraction grows.
	prevRatio := 1e9
	for _, p := range points {
		if p.ELBlocks >= p.FWBlocks {
			t.Fatalf("mix %.0f%%: EL %d blocks >= FW %d", p.FracLong*100, p.ELBlocks, p.FWBlocks)
		}
		ratio := float64(p.FWBlocks) / float64(p.ELBlocks)
		if ratio >= prevRatio {
			t.Fatalf("space advantage did not shrink with the mix: %.2f then %.2f", prevRatio, ratio)
		}
		prevRatio = ratio
	}
	// At the 5% mix the paper reports a 3.6x reduction; accept 2.5-5x.
	first := points[0]
	r := float64(first.FWBlocks) / float64(first.ELBlocks)
	if r < 2.5 || r > 5.5 {
		t.Fatalf("5%% mix space ratio %.2f outside 2.5-5.5 (FW=%d EL=%d)", r, first.FWBlocks, first.ELBlocks)
	}
	// Figure 5 shape: EL bandwidth exceeds FW, and the gap widens with the
	// mix ("the increase in bandwidth is greater").
	prevGap := -1.0
	for _, p := range points {
		if p.ELBW <= p.FWBW {
			t.Fatalf("mix %.0f%%: EL bandwidth %.2f not above FW %.2f", p.FracLong*100, p.ELBW, p.FWBW)
		}
		gap := p.ELBW - p.FWBW
		if gap <= prevGap {
			t.Fatalf("bandwidth gap did not widen: %.2f then %.2f", prevGap, gap)
		}
		prevGap = gap
	}
	// At 5% the paper reports only ~11% extra bandwidth; accept up to 25%.
	if inc := 100 * (first.ELBW/first.FWBW - 1); inc > 25 {
		t.Fatalf("5%% mix bandwidth increase %.1f%% too large", inc)
	}
	// Figure 6 shape: EL uses more memory than FW everywhere; both grow
	// with the mix.
	for i, p := range points {
		if p.ELMemPeak <= p.FWMemPeak {
			t.Fatalf("mix %.0f%%: EL memory %.0f not above FW %.0f", p.FracLong*100, p.ELMemPeak, p.FWMemPeak)
		}
		if i > 0 && (p.FWMemPeak <= points[i-1].FWMemPeak || p.ELMemPeak <= points[i-1].ELMemPeak) {
			t.Fatalf("memory did not grow with the mix: %+v", points)
		}
	}
	out := FormatFig456(points)
	for _, want := range []string{"Figure 4", "Figure 5", "Figure 6"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted output missing %q:\n%s", want, out)
		}
	}
	pinned := []MixPoint{
		{FracLong: 0.05, FWBlocks: 121, FWBW: 11.325, FWMemPeak: 3608, ELGen0: 20, ELGen1: 13, ELBlocks: 33, ELBW: 12.325, ELMemPeak: 13680},
		{FracLong: 0.20, FWBlocks: 138, FWBW: 12.4, FWMemPeak: 6798, ELGen0: 20, ELGen1: 33, ELBlocks: 53, ELBW: 15.1, ELMemPeak: 28720},
		{FracLong: 0.40, FWBlocks: 159, FWBW: 13.65, FWMemPeak: 10868, ELGen0: 19, ELGen1: 63, ELBlocks: 82, ELBW: 19.05, ELMemPeak: 48360},
	}
	for i, w := range pinned {
		p, k := points[i], fmt.Sprintf("%gpct", w.FracLong*100)
		pinInt(t, "fig456/fw_blocks_"+k, p.FWBlocks, w.FWBlocks)
		pinInt(t, "fig456/el_blocks_"+k, p.ELBlocks, w.ELBlocks)
		pinInt(t, "fig456/el_gen0_"+k, p.ELGen0, w.ELGen0)
		pinInt(t, "fig456/el_gen1_"+k, p.ELGen1, w.ELGen1)
		pinFloat(t, "fig456/fw_writes_per_s_"+k, p.FWBW, w.FWBW)
		pinFloat(t, "fig456/el_writes_per_s_"+k, p.ELBW, w.ELBW)
		pinFloat(t, "fig456/fw_mem_bytes_"+k, p.FWMemPeak, w.FWMemPeak)
		pinFloat(t, "fig456/el_mem_bytes_"+k, p.ELMemPeak, w.ELMemPeak)
	}
}

func TestFig7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scaled-down experiments; skipped with -short (the race job)")
	}
	o := quick()
	o.Mixes = []float64{0.05}
	r, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.MinRecircG1 >= r.NoRecircG1 {
		t.Fatalf("recirculation did not shrink the last generation: %d -> %d", r.NoRecircG1, r.MinRecircG1)
	}
	if len(r.Points) < 2 {
		t.Fatalf("sweep has only %d points", len(r.Points))
	}
	// Shrinking the last generation must not reduce bandwidth to it, and
	// the smallest size must recirculate more than the largest.
	firstP, lastP := r.Points[0], r.Points[len(r.Points)-1]
	if lastP.Gen1 >= firstP.Gen1 {
		t.Fatalf("sweep not descending: %+v", r.Points)
	}
	if lastP.Recirc <= firstP.Recirc {
		t.Fatalf("smaller last generation recirculated less: %d vs %d", lastP.Recirc, firstP.Recirc)
	}
	if lastP.TotalBW < firstP.TotalBW {
		t.Fatalf("bandwidth fell as space shrank: %.2f -> %.2f", firstP.TotalBW, lastP.TotalBW)
	}
	// EL total even at the no-recirc end stays far below FW.
	if firstP.Total*2 > r.FWBlocks {
		t.Fatalf("EL total %d not well below FW %d", firstP.Total, r.FWBlocks)
	}
	if !strings.Contains(FormatFig7(r), "Figure 7") {
		t.Fatal("formatted output missing title")
	}
	pinInt(t, "fig7/gen0_blocks", r.Gen0, 20)
	pinInt(t, "fig7/gen1_max_blocks", r.NoRecircG1, 13)
	pinInt(t, "fig7/gen1_min_blocks", r.MinRecircG1, 10)
	pinFloat(t, "fig7/writes_per_s_max_space", firstP.TotalBW, 12.325)
	pinFloat(t, "fig7/writes_per_s_min_space", lastP.TotalBW, 13.025)
}

func TestScarceShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scaled-down experiments; skipped with -short (the race job)")
	}
	o := quick()
	o.Mixes = []float64{0.05}
	r, err := Scarce(o)
	if err != nil {
		t.Fatal(err)
	}
	// 10 drives at 45 ms = 222/s against 210 updates/s.
	if r.MaxFlushRate < 220 || r.MaxFlushRate > 224 {
		t.Fatalf("max flush rate %.1f, want ~222", r.MaxFlushRate)
	}
	if r.UpdateRate != 210 {
		t.Fatalf("update rate %.1f, want 210", r.UpdateRate)
	}
	// The headline locality claim: scarcity must *reduce* the average
	// inter-flush oid distance markedly (paper: 235k -> 109k).
	if r.AvgDist >= r.BaselineDist*0.8 {
		t.Fatalf("no locality improvement: %.0f vs baseline %.0f", r.AvgDist, r.BaselineDist)
	}
	// Unflushed updates recirculate until flushed.
	if r.Recirculated == 0 {
		t.Fatal("nothing recirculated under scarce flushing")
	}
	if !strings.Contains(FormatScarce(r), "Scarce") {
		t.Fatal("formatted output missing title")
	}
	pinInt(t, "scarce/total_blocks", r.TotalBlocks, 31)
	pinFloat(t, "scarce/writes_per_s", r.TotalBW, 14.475)
	pinFloat(t, "scarce/flush_oid_dist", r.AvgDist, 11455.06783729156)
	pinFloat(t, "scarce/flush_oid_dist_25ms", r.BaselineDist, 22120.628107432854)
}

func TestHeadlineRatios(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scaled-down experiments; skipped with -short (the race job)")
	}
	o := quick()
	o.Mixes = []float64{0.05}
	h, err := Headline(o)
	if err != nil {
		t.Fatal(err)
	}
	if h.SpaceFactorNR < 2.5 || h.SpaceFactorNR > 5.5 {
		t.Fatalf("no-recirc space factor %.2f outside 2.5-5.5 (paper: 3.6)", h.SpaceFactorNR)
	}
	if h.SpaceFactorR <= h.SpaceFactorNR {
		t.Fatalf("recirculation did not improve the space factor: %.2f vs %.2f", h.SpaceFactorR, h.SpaceFactorNR)
	}
	if h.BWIncreaseNR <= 0 || h.BWIncreaseNR > 25 {
		t.Fatalf("no-recirc bandwidth increase %.1f%% outside (0, 25] (paper: 11%%)", h.BWIncreaseNR)
	}
	if h.BWIncreaseR < h.BWIncreaseNR {
		t.Fatalf("recirculation reduced bandwidth: %+.1f%% vs %+.1f%%", h.BWIncreaseR, h.BWIncreaseNR)
	}
	if !strings.Contains(FormatHeadline(h), "Headline") {
		t.Fatal("formatted output missing title")
	}
	pinInt(t, "headline/fw_blocks", h.FWBlocks, 121)
	pinInt(t, "headline/el_blocks_norecirc", h.ELNoRecirc, 33)
	pinInt(t, "headline/el_blocks_recirc", h.ELRecirc, 30)
	pinFloat(t, "headline/space_factor_norecirc", h.SpaceFactorNR, 3.6666666666666665)
	pinFloat(t, "headline/space_factor_recirc", h.SpaceFactorR, 4.033333333333333)
	pinFloat(t, "headline/bw_increase_pct_norecirc", h.BWIncreaseNR, 8.830022075055188)
	pinFloat(t, "headline/bw_increase_pct_recirc", h.BWIncreaseR, 15.011037527593828)
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Runtime != 500*sim.Second || o.NumObjects != 10_000_000 ||
		len(o.Mixes) != 5 || o.FlushTransfer != 25*sim.Millisecond {
		t.Fatalf("defaults wrong: %+v", o)
	}
}
