package experiments

import (
	"fmt"
	"os"
	"strings"

	"ellog/internal/core"
	"ellog/internal/harness"
	"ellog/internal/obs"
	"ellog/internal/realdev"
	"ellog/internal/sim"
	"ellog/internal/workload"
)

// SimVsRealTolerance is the shape gate: the maximum allowed pointwise
// deviation between the simulated and real backends' normalized cumulative
// commit curves. The gate is deliberately on shape, not absolute numbers —
// wall-clock fsync latencies vary machine to machine, but both backends
// run the identical manager and workload code, so their commit curves must
// climb the same way.
const SimVsRealTolerance = 0.15

// SimVsRealSeriesTolerance gates the shared ellog_* probe series: both
// backends sample the canonical schema (internal/obs) at the same cadence,
// and every cumulative (_total) series they share must climb the same way.
// The bound is looser than the commit gate because secondary counters
// (flushes, block writes) sit behind more machine-dependent latency.
const SimVsRealSeriesTolerance = 0.25

// simVsRealSeriesFloor is the final-count floor below which a shared
// series is reported but not gated: a counter that fired a handful of
// times has no statistically meaningful shape.
const simVsRealSeriesFloor = 50

// SeriesDeviation compares one identically-named cumulative series
// sampled on both backends.
type SeriesDeviation struct {
	Name      string  `json:"name"`
	SimFinal  float64 `json:"sim_final"`
	RealFinal float64 `json:"real_final"`
	// MaxDev is the largest pointwise gap between the normalized curves.
	MaxDev float64 `json:"max_dev"`
	// Gated is false when either side's final count is under the floor —
	// the deviation is then informational only.
	Gated bool `json:"gated"`
}

// SimVsRealSide summarizes one backend's run of the shared configuration.
type SimVsRealSide struct {
	Committed   uint64
	Killed      uint64
	BlockWrites uint64
	WritesPerS  float64
	E2EMeanMS   float64
	TotalBlocks int // configured log size (min-space view)
}

// SimVsRealResult is the comparison report of one configuration run
// through both backends.
type SimVsRealResult struct {
	Seed       uint64
	RuntimeS   float64
	Arrival    float64
	NumObjects uint64
	// RuntimeClamped notes that the requested runtime was cut down to keep
	// the real run's wall-clock cost bounded.
	RuntimeClamped bool

	Sim  SimVsRealSide
	Real SimVsRealSide
	IO   realdev.RealStats

	// MaxCurveDev is the largest pointwise gap between the two normalized
	// commit curves — the ellog_commits_total series of both sides —
	// measured at CurvePoints checkpoints.
	MaxCurveDev     float64
	CurvePoints     int
	Tolerance       float64
	WithinTolerance bool

	// Series holds the per-metric comparison of every cumulative ellog_*
	// series both backends sampled; SeriesOK is true when every gated
	// entry stays within SeriesTolerance.
	Series          []SeriesDeviation
	SeriesTolerance float64
	SeriesOK        bool
}

// simVsRealConfig is the shared configuration: a compressed version of the
// paper's workload (10 ms and 50 ms transactions instead of 1 s and 10 s)
// so the real backend — which pays the runtime in actual wall time —
// finishes in seconds. Both backends receive identical parameters; only
// the clock and the device differ.
func simVsRealConfig(opt Options, runtime sim.Time) (core.Params, core.FlushConfig, workload.Config) {
	objects := opt.NumObjects
	if objects == 0 || objects > 20_000 {
		objects = 10_000
	}
	if rem := objects % 4; rem != 0 {
		objects += 4 - rem // flush array wants a multiple of the drive count
	}
	p := core.Params{
		Mode:               core.ModeEphemeral,
		GenSizes:           []int{16, 12, 10},
		Recirculate:        true,
		GroupCommitTimeout: 5 * sim.Millisecond,
		WriteLatency:       5 * sim.Millisecond,
	}
	fc := core.FlushConfig{Drives: 4, Transfer: 2 * sim.Millisecond, NumObjects: objects}
	wl := workload.Config{
		Mix: workload.Mix{
			{Name: "short", Prob: 0.8, Lifetime: 10 * sim.Millisecond, NumRecords: 2, RecordSize: 100},
			{Name: "long", Prob: 0.2, Lifetime: 50 * sim.Millisecond, NumRecords: 4, RecordSize: 100},
		},
		ArrivalRate: 400,
		Runtime:     runtime,
		NumObjects:  objects,
	}
	return p, fc, wl
}

// SimVsReal runs one configuration through the simulated backend and the
// real-file backend and compares the two commit curves. The real run's log
// directory is taken from opt.RealDir (a temporary directory when empty,
// removed afterwards). Direct I/O follows opt.RealDirect ("auto" when
// empty, so tmpfs and CI fall back to buffered I/O).
func SimVsReal(opt Options) (SimVsRealResult, error) {
	runtime := opt.Runtime
	res := SimVsRealResult{Seed: opt.Seed, Tolerance: SimVsRealTolerance}
	// The real backend spends the runtime in wall time: cap it so the
	// default 500 s paper runtime doesn't mean 500 s of fsync traffic.
	if runtime > 10*sim.Second {
		runtime = 2 * sim.Second
		res.RuntimeClamped = true
	}
	if runtime < 200*sim.Millisecond {
		runtime = 200 * sim.Millisecond
		res.RuntimeClamped = true
	}
	p, fc, wl := simVsRealConfig(opt, runtime)
	res.RuntimeS = runtime.Seconds()
	res.Arrival = wl.ArrivalRate
	res.NumObjects = wl.NumObjects
	sampleEvery := runtime / 100

	// Both sides sample the canonical probe schema at the same cadence: the
	// simulated side on the engine, the real side on the loop.
	arm := func(clk sim.Clock, t obs.ProbeTargets) *obs.Sampler {
		s := obs.NewSampler(clk, sampleEvery, 0)
		obs.RegisterProbes(s, obs.StandardProbes(t))
		s.Start()
		return s
	}

	// Simulated side.
	live, err := harness.Build(harness.Config{Seed: opt.Seed, LM: p, Flush: fc, Workload: wl})
	if err != nil {
		return res, err
	}
	simSampler := arm(live.Setup.Eng, obs.SetupTargets(live.Setup))
	live.Setup.Eng.Run(runtime)
	simStats := live.Setup.LM.Stats()
	simW := live.Gen.Stats()
	res.Sim = SimVsRealSide{
		Committed:   simW.Committed,
		Killed:      simW.Killed,
		BlockWrites: simStats.TotalWrites,
		WritesPerS:  simStats.TotalBandwidth,
		E2EMeanMS:   simW.EndToEndMean * 1000,
		TotalBlocks: simStats.TotalBlocks,
	}

	// Real side.
	dir := opt.RealDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "ellog-simvreal-*")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	direct := realdev.DirectMode(opt.RealDirect)
	var realSampler *obs.Sampler
	// The entire point of this experiment is to run the identical
	// workload against the wall clock and compare; the deterministic sim
	// half above is unaffected, and callers (cmd/elbench -simvreal)
	// invoke this knowingly. The allow also sanitizes SimVsReal's own
	// summary, so merely linking it does not taint the bench harness.
	//ellint:allow detflow sim-vs-real validation deliberately drives the wall-clock backend
	realRes, err := realdev.Run(realdev.RunConfig{
		Seed:     opt.Seed,
		Dir:      dir,
		LM:       p,
		Flush:    fc,
		Workload: wl,
		Device:   realdev.Options{Direct: direct},
		OnLive:   func(l *realdev.Live) { realSampler = arm(l.Loop, l.Targets()) },
	})
	if err != nil {
		return res, err
	}
	res.Real = SimVsRealSide{
		Committed:   realRes.Workload.Committed,
		Killed:      realRes.Workload.Killed,
		BlockWrites: realRes.LM.TotalWrites,
		WritesPerS:  realRes.LM.TotalBandwidth,
		E2EMeanMS:   realRes.Workload.EndToEndMean * 1000,
		TotalBlocks: realRes.LM.TotalBlocks,
	}
	res.IO = realRes.Real

	if res.Sim.Committed == 0 || res.Real.Committed == 0 {
		return res, fmt.Errorf("simvreal: a backend committed nothing (sim %d, real %d)",
			res.Sim.Committed, res.Real.Committed)
	}
	res.CurvePoints = 100
	res.SeriesTolerance = SimVsRealSeriesTolerance
	res.Series = compareSeries(simSampler.Series(), realSampler.Series(), runtime, res.CurvePoints)
	res.SeriesOK = true
	for _, sd := range res.Series {
		if sd.Gated && sd.MaxDev > res.SeriesTolerance {
			res.SeriesOK = false
		}
		// The commit curve is one of the shared series, held to the tighter
		// tolerance as well.
		if sd.Name == obs.MetricCommits {
			res.MaxCurveDev = sd.MaxDev
		}
	}
	res.WithinTolerance = res.MaxCurveDev <= res.Tolerance
	return res, nil
}

// compareSeries joins the two probe snapshots by exact series name and
// measures the normalized-curve deviation of every shared cumulative
// (_total) metric. Gauges are excluded: levels like generation occupancy
// oscillate, so a pointwise fraction-of-final comparison is meaningless
// for them — the cumulative counters are the cross-backend contract.
func compareSeries(simS, realS []obs.Series, runtime sim.Time, n int) []SeriesDeviation {
	realByName := make(map[string]obs.Series, len(realS))
	for _, s := range realS {
		realByName[s.Name] = s
	}
	var out []SeriesDeviation
	for _, ss := range simS {
		family, _ := obs.SplitName(ss.Name)
		if !strings.HasSuffix(family, "_total") {
			continue
		}
		rs, ok := realByName[ss.Name]
		if !ok {
			continue
		}
		sc, rc := probeCurve(ss), probeCurve(rs)
		sd := SeriesDeviation{Name: ss.Name, SimFinal: sc.final(), RealFinal: rc.final()}
		sd.MaxDev = maxDeviation(sc, rc, runtime, n)
		sd.Gated = sd.SimFinal >= simVsRealSeriesFloor && sd.RealFinal >= simVsRealSeriesFloor
		out = append(out, sd)
	}
	return out
}

// fcurve is a sampled cumulative curve.
type fcurve []fpoint

type fpoint struct {
	at sim.Time
	v  float64
}

// probeCurve adapts one sampled probe series. Sampler points carry a
// bucket mean, which for an un-downsampled run is the raw sample itself.
func probeCurve(s obs.Series) fcurve {
	out := make(fcurve, len(s.Points))
	for i, p := range s.Points {
		out[i] = fpoint{p.At, p.Mean}
	}
	return out
}

// final returns the curve's last value (its normalization constant).
func (c fcurve) final() float64 {
	if len(c) == 0 {
		return 0
	}
	return c[len(c)-1].v
}

// frac evaluates the curve at time t as a fraction of its final value:
// the step interpolation of the last sample at or before t.
func (c fcurve) frac(t sim.Time) float64 {
	final := c.final()
	if final == 0 {
		return 0
	}
	var at float64
	for _, pt := range c {
		if pt.at > t {
			break
		}
		at = pt.v
	}
	return at / final
}

// maxDeviation measures the largest pointwise gap between two normalized
// cumulative curves over n evenly spaced checkpoints.
func maxDeviation(a, b fcurve, runtime sim.Time, n int) float64 {
	maxDev := 0.0
	for k := 1; k <= n; k++ {
		t := sim.Time(int64(runtime) * int64(k) / int64(n))
		dev := a.frac(t) - b.frac(t)
		if dev < 0 {
			dev = -dev
		}
		if dev > maxDev {
			maxDev = dev
		}
	}
	return maxDev
}

// FormatSimVsReal renders the comparison report.
func FormatSimVsReal(r SimVsRealResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sim-vs-real validation: one configuration, both backends (seed %d)\n", r.Seed)
	fmt.Fprintf(&sb, "  runtime %.2g s, %g TPS, %d objects", r.RuntimeS, r.Arrival, r.NumObjects)
	if r.RuntimeClamped {
		sb.WriteString(" (runtime clamped: real runs pay wall time)")
	}
	sb.WriteString("\n\n")
	fmt.Fprintf(&sb, "  %-22s %12s %12s\n", "", "sim", "real")
	fmt.Fprintf(&sb, "  %-22s %12d %12d\n", "committed", r.Sim.Committed, r.Real.Committed)
	fmt.Fprintf(&sb, "  %-22s %12d %12d\n", "killed", r.Sim.Killed, r.Real.Killed)
	fmt.Fprintf(&sb, "  %-22s %12d %12d\n", "block writes", r.Sim.BlockWrites, r.Real.BlockWrites)
	fmt.Fprintf(&sb, "  %-22s %12.1f %12.1f\n", "writes/s", r.Sim.WritesPerS, r.Real.WritesPerS)
	fmt.Fprintf(&sb, "  %-22s %12.1f %12.1f\n", "end-to-end mean (ms)", r.Sim.E2EMeanMS, r.Real.E2EMeanMS)
	fmt.Fprintf(&sb, "  %-22s %12d %12d\n", "log blocks (min-space)", r.Sim.TotalBlocks, r.Real.TotalBlocks)
	sb.WriteString("\n")
	io := "buffered"
	if r.IO.Direct {
		io = "O_DIRECT"
	}
	fmt.Fprintf(&sb, "  real I/O path: %s, %d B slots, %d batches (%d fsyncs, max %d blocks), batch mean %.2f ms p99 %.2f ms, %d pipeline stalls\n",
		io, r.IO.SlotBytes, r.IO.Batches, r.IO.Fsyncs, r.IO.MaxBatchBlocks, r.IO.BatchMeanMS, r.IO.BatchP99MS, r.IO.PipelineStalls)
	verdict := "OK"
	if !r.WithinTolerance {
		verdict = "FAIL"
	}
	fmt.Fprintf(&sb, "  commit-curve max deviation %.3f over %d checkpoints (tolerance %.2f): %s\n",
		r.MaxCurveDev, r.CurvePoints, r.Tolerance, verdict)
	if len(r.Series) > 0 {
		fmt.Fprintf(&sb, "\n  shared ellog_* series (tolerance %.2f; ~ = under %d events, informational):\n",
			r.SeriesTolerance, simVsRealSeriesFloor)
		for _, sd := range r.Series {
			mark := "~"
			if sd.Gated {
				mark = "OK"
				if sd.MaxDev > r.SeriesTolerance {
					mark = "FAIL"
				}
			}
			fmt.Fprintf(&sb, "    %-28s sim %8.0f  real %8.0f  max dev %.3f  %s\n",
				sd.Name, sd.SimFinal, sd.RealFinal, sd.MaxDev, mark)
		}
	}
	return sb.String()
}
