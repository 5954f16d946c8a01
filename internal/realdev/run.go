package realdev

import (
	"ellog/internal/core"
	"ellog/internal/flushdisk"
	"ellog/internal/harness"
	"ellog/internal/obs"
	"ellog/internal/obs/live"
	"ellog/internal/realtime"
	"ellog/internal/sim"
	"ellog/internal/statedb"
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
	// Metrics, when non-nil, arms the live registry: the device registers
	// its fsync/batch instruments and a poller copies the canonical schema
	// probes into it every metricsEvery.
	Metrics *live.Registry
	// OnLive, when non-nil, runs with the assembled components after Build
	// and before the loop is driven — where a caller arms what it would arm
	// on a simulated run after harness.Build (an obs.Observer or a sampler
	// on Live.Loop, a tracer on Live.LM) and starts what needs the loop
	// clock (elreal's metrics server). The trace clock is the loop's
	// monotonic sim.Time (µs since start), so trace streams and probe
	// series are shaped exactly like simulated ones.
	OnLive func(*Live)
}

const (
	// drainGrace bounds the post-horizon wait, in wall time, for issued
	// writes to be acknowledged.
	drainGrace = 2 * sim.Second
	// metricsEvery is the probe poll cadence for RunConfig.Metrics.
	metricsEvery = 250 * sim.Millisecond
)

// Result summarizes a real-backend run: a simulated run's result plus the
// measured I/O-path statistics only a real device has.
type Result struct {
	harness.Result
	Real RealStats
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

// Targets names the run's components as the probe targets of the canonical
// ellog_* schema.
func (l *Live) Targets() obs.ProbeTargets {
	return obs.ProbeTargets{LM: l.LM, Dev: l.Dev, Flush: l.Flush}
}

// Build assembles a real-backend run the way harness.Build assembles a
// simulated one — core.Assemble plus the workload generator — on a
// wall-clock loop in place of the simulation engine and a file device in
// place of the simulated one. The generator is started; the caller drives
// the loop.
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
	m, flush, err := core.Assemble(loop, p, dev, cfg.Flush)
	if err != nil {
		dev.Abandon()
		return nil, err
	}
	gen, err := workload.New(loop, m, cfg.Workload)
	if err != nil {
		dev.Abandon()
		return nil, err
	}
	l := &Live{Loop: loop, Dev: dev, Flush: flush, DB: m.DB(), LM: m, Gen: gen}
	if cfg.Metrics != nil {
		dev.SetMetrics(cfg.Metrics)
		l.Poller = live.NewPoller(cfg.Metrics, obs.StandardProbes(l.Targets()))
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
	gen.Start()
	return l, nil
}

// Run executes the configuration against the real backend: drive the loop
// to the workload horizon in wall time, then shut down cleanly. The Result
// is that of the run as far as it got even when the shutdown fails.
func Run(cfg RunConfig) (Result, error) {
	live, err := Build(cfg)
	if err != nil {
		return Result{}, err
	}
	if cfg.OnLive != nil {
		cfg.OnLive(live)
	}
	live.Loop.Run(cfg.Workload.Runtime)
	err = live.Shutdown()
	if live.Poller != nil {
		// One final collection so the registry's last reading covers the
		// drained end state, not the last cadence tick.
		live.Poller.Collect()
	}
	return Result{
		Result: harness.Result{LM: live.LM.Stats(), Workload: live.Gen.Stats()},
		Real:   live.Dev.RealStats(),
	}, err
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
