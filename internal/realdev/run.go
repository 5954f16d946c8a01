package realdev

import (
	"ellog/internal/core"
	"ellog/internal/flushdisk"
	"ellog/internal/obs"
	"ellog/internal/obs/live"
	"ellog/internal/realtime"
	"ellog/internal/sim"
	"ellog/internal/statedb"
	"ellog/internal/trace"
	"ellog/internal/workload"
)

// RunConfig describes a real-backend run: the same logging-manager, flush
// and workload parameters a simulated run takes, bound to a log directory
// on a real filesystem instead of a simulated device.
type RunConfig struct {
	Seed     uint64
	Dir      string
	LM       core.Params
	Flush    core.FlushConfig
	Workload workload.Config
	// Device tunes the file device; a zero SlotBytes is computed with
	// SlotFor from the effective block payload and the smallest record the
	// workload can log.
	Device Options
	// SampleEvery, when positive, samples the cumulative committed-
	// transaction count at this cadence — the commit curve the sim-vs-real
	// comparison is shape-gated on.
	SampleEvery sim.Time
	// Tracer, when non-nil, receives every manager trace event. The trace
	// clock is the loop's monotonic sim.Time (µs since start), so the
	// streams eltrace and the Perfetto exporter consume are shaped exactly
	// like simulated ones.
	Tracer trace.Sink
	// Metrics, when non-nil, arms the live registry: the device registers
	// its fsync/batch instruments and a poller copies the canonical schema
	// probes into it every metricsEvery.
	Metrics *live.Registry
	// ProbeEvery, when positive, attaches the simulated-time probe sampler
	// to the loop at this cadence; Result.Probes then carries the same
	// downsampled ellog_* series an elsim -probes-out run produces.
	ProbeEvery sim.Time
	// OnLive, when non-nil, runs with the assembled components after Build
	// and before the loop is driven — the hook elreal uses to start the
	// metrics server and watch ticker with access to the loop clock.
	OnLive func(*Live)
}

const (
	// drainGrace bounds the post-horizon wait, in wall time, for issued
	// writes to be acknowledged.
	drainGrace = 2 * sim.Second
	// metricsEvery is the probe poll cadence for RunConfig.Metrics.
	metricsEvery = 250 * sim.Millisecond
)

// CurvePoint is one sample of the cumulative commit count.
type CurvePoint struct {
	At        sim.Time `json:"at_us"`
	Committed uint64   `json:"committed"`
}

// Result summarizes a real-backend run: the simulated backend's own stats
// shapes plus the measured I/O-path statistics only a real device has.
type Result struct {
	LM       core.Stats
	Workload workload.Stats
	Real     RealStats
	Curve    []CurvePoint
	// Probes holds the sampled ellog_* series when RunConfig.ProbeEvery
	// was set — name-compatible with elsim probe output.
	Probes []obs.Series
}

// Insufficient mirrors harness.Result: the disk budget failed to sustain
// the workload.
func (r Result) Insufficient() bool {
	return r.LM.Insufficient() || r.Workload.Killed > 0
}

// Live exposes the assembled components of a real-backend run, for callers
// that crash it mid-flight (torn-block recovery tests) or inspect state.
//
// Live owns the run's lifecycle. Open: the caller drives Loop.Run and anyone
// on the loop may write. Draining (Drain): the manager is quiesced and the
// loop runs only until every issued write is acknowledged; completions and
// timers that fire meanwhile may issue further writes, which are accepted.
// Closed (Shutdown, or Dev.Abandon for a crash): the file is closed and the
// loop is never run again, so a timer still armed never reaches the device.
type Live struct {
	Loop  *realtime.Loop
	Dev   *Device
	Flush *flushdisk.Array
	DB    *statedb.DB
	LM    *core.Manager
	Gen   *workload.Generator
	// Sampler is the probe sampler when ProbeEvery armed one.
	Sampler *obs.Sampler
	// Poller feeds the live registry when Metrics armed it; ticks run on
	// the loop goroutine until the workload horizon.
	Poller *live.Poller
}

// minRecSize returns the smallest logical record size the configuration
// can log — the denominator of the worst-case records-per-block bound that
// sizes slots.
func minRecSize(p core.Params, mix workload.Mix) int {
	m := p.TxRecSize
	for _, t := range mix {
		if t.RecordSize < m {
			m = t.RecordSize
		}
	}
	if m <= 0 {
		m = 1
	}
	return m
}

// Build assembles a real-backend run, mirroring core.NewSetup plus the
// workload generator: a wall-clock loop in place of the simulation engine,
// a file device in place of the simulated one, and the identical manager,
// flush-array and generator code in between. The generator is started; the
// caller drives the loop.
func Build(cfg RunConfig) (*Live, error) {
	p := cfg.LM.WithDefaults()
	opt := cfg.Device
	if opt.SlotBytes == 0 {
		opt.SlotBytes = SlotFor(p.BlockPayload, minRecSize(p, cfg.Workload.Mix))
	}
	loop := realtime.New(cfg.Seed)
	dev, err := Open(loop, cfg.Dir, opt)
	if err != nil {
		return nil, err
	}
	db := statedb.New()
	var m *core.Manager
	flush := flushdisk.New(loop, cfg.Flush.Drives, cfg.Flush.Transfer, cfg.Flush.NumObjects, func(req flushdisk.Request) {
		m.Flushed(req)
	})
	m, err = core.New(loop, p, dev, flush, db)
	if err != nil {
		dev.Abandon()
		return nil, err
	}
	gen, err := workload.New(loop, m, cfg.Workload)
	if err != nil {
		dev.Abandon()
		return nil, err
	}
	if cfg.Tracer != nil {
		m.SetTracer(cfg.Tracer)
	}
	l := &Live{Loop: loop, Dev: dev, Flush: flush, DB: db, LM: m, Gen: gen}
	if cfg.Metrics != nil {
		dev.SetMetrics(cfg.Metrics)
		l.Poller = live.NewPoller(cfg.Metrics,
			obs.StandardProbes(obs.ProbeTargets{LM: m, Dev: dev, Flush: flush}))
		up := cfg.Metrics.Gauge(obs.MetricUptimeSeconds, "")
		var tick func()
		tick = func() {
			l.Poller.Collect()
			up.Set(loop.Now().Seconds())
			if loop.Now() < cfg.Workload.Runtime {
				loop.After(metricsEvery, tick)
			}
		}
		loop.After(metricsEvery, tick)
	}
	if cfg.ProbeEvery > 0 {
		l.Sampler = obs.NewSampler(loop, cfg.ProbeEvery, 0)
		obs.RegisterProbes(l.Sampler,
			obs.StandardProbes(obs.ProbeTargets{LM: m, Dev: dev, Flush: flush}))
		l.Sampler.Start()
	}
	gen.Start()
	return l, nil
}

// Run executes the configuration against the real backend: drive the loop
// to the workload horizon in wall time, then shut down cleanly.
func Run(cfg RunConfig) (Result, error) {
	live, err := Build(cfg)
	if err != nil {
		return Result{}, err
	}
	if cfg.OnLive != nil {
		cfg.OnLive(live)
	}
	var curve []CurvePoint
	if cfg.SampleEvery > 0 {
		var sample func()
		sample = func() {
			curve = append(curve, CurvePoint{
				At:        live.Loop.Now(),
				Committed: live.Gen.Committed(),
			})
			if live.Loop.Now() < cfg.Workload.Runtime {
				live.Loop.After(cfg.SampleEvery, sample)
			}
		}
		live.Loop.After(cfg.SampleEvery, sample)
	}
	live.Loop.Run(cfg.Workload.Runtime)
	err = live.Shutdown()
	if live.Poller != nil {
		// One final collection so the registry's last reading covers the
		// drained end state, not the last cadence tick.
		live.Poller.Collect()
	}
	res := Result{
		LM:       live.LM.Stats(),
		Workload: live.Gen.Stats(),
		Real:     live.Dev.RealStats(),
		Curve:    curve,
	}
	if live.Sampler != nil {
		res.Probes = live.Sampler.Series()
	}
	return res, err
}

// Drain quiesces the manager — every open buffer is sealed, so nothing waits
// on a group-commit timer — and runs the loop until every issued write is
// acknowledged or drainGrace expires.
func (l *Live) Drain() {
	l.LM.Quiesce()
	deadline := l.Loop.Now() + drainGrace
	for l.Dev.InFlight() > 0 && l.Loop.Now() < deadline {
		l.Loop.Run(l.Loop.Now() + sim.Millisecond)
	}
}

// Shutdown drains and closes the device. It fails if the drain ran out of
// grace with writes unacknowledged. The loop must not be run afterwards.
func (l *Live) Shutdown() error {
	l.Drain()
	return l.Dev.Close()
}
