// Package obs is the simulated-time observability layer: a probe sampler
// turning component gauges into memory-bounded time series, a streaming
// JSONL trace sink that persists the full event stream of a run, a Chrome
// trace-event / Perfetto exporter, and a transaction-lifecycle explainer
// reconstructing the paper's t1…t5 epochs from a recorded trace.
//
// Everything here follows the fault subsystem's contract: hooks are
// nil-gated, probes only read state, and sampler ticks consume no
// randomness — an observability-off run is byte-identical to one that
// never linked this package, and an observability-on run produces
// byte-identical core.Stats to the same run untraced.
package obs

import (
	"fmt"
	"os"

	"ellog/internal/core"
	"ellog/internal/sim"
	"ellog/internal/trace"
)

// Config arms the observability layer. The zero value is fully disarmed.
// It lives outside harness.Config on purpose: runner.Pool memoizes runs
// by the harness configuration, and observability must never change a
// run's identity.
type Config struct {
	// SampleInterval is the probe cadence (default 100 ms when probes are
	// armed via ProbesPath).
	SampleInterval sim.Time
	// MaxPoints bounds each sampled series (default 512 points).
	MaxPoints int
	// TracePath, when set, streams every trace event to this file.
	TracePath string
	// ProbesPath, when set, samples standard probes and writes the series
	// snapshot to this file at Close.
	ProbesPath string
}

// Armed reports whether any observability output is requested.
func (c Config) Armed() bool { return c.TracePath != "" || c.ProbesPath != "" }

// Observer owns an armed run's observability state: the streaming sink
// (if any) and the probe sampler (if any). Close flushes both outputs.
type Observer struct {
	cfg     Config
	sampler *Sampler
	sink    *JSONLSink
	file    *os.File
}

// New arms observability per cfg on the components named by t, with the
// sampler ticking on clk — a simulation engine, an LP's engine or the real
// backend's loop. With a disarmed cfg it returns (nil, nil), and a nil
// *Observer's methods are safe: no sink, no sampler, Close is a no-op —
// callers need no branching.
func New(clk sim.Clock, t ProbeTargets, cfg Config) (*Observer, error) {
	if !cfg.Armed() {
		return nil, nil
	}
	o := &Observer{cfg: cfg}
	if cfg.TracePath != "" {
		f, err := os.Create(cfg.TracePath)
		if err != nil {
			return nil, fmt.Errorf("obs: trace output: %w", err)
		}
		o.file = f
		o.sink = NewJSONLSink(f)
	}
	if cfg.ProbesPath != "" {
		o.sampler = NewSampler(clk, cfg.SampleInterval, cfg.MaxPoints)
		RegisterProbes(o.sampler, StandardProbes(t))
		o.sampler.Start()
	}
	return o, nil
}

// Sink returns the streaming trace sink, nil when streaming is off (or
// o is nil). Compose it with other sinks via Multi.
func (o *Observer) Sink() trace.Sink {
	if o == nil || o.sink == nil {
		return nil
	}
	return o.sink
}

// Sampler returns the probe sampler, nil when sampling is off.
func (o *Observer) Sampler() *Sampler {
	if o == nil {
		return nil
	}
	return o.sampler
}

// Close flushes the trace stream and writes the probe snapshot. Safe on
// nil and idempotent enough for defer+explicit use.
func (o *Observer) Close() error {
	if o == nil {
		return nil
	}
	var first error
	if o.sink != nil {
		first = o.sink.Flush()
		o.sink = nil
	}
	if o.file != nil {
		if err := o.file.Close(); err != nil && first == nil {
			first = err
		}
		o.file = nil
	}
	if o.sampler != nil && o.cfg.ProbesPath != "" {
		f, err := os.Create(o.cfg.ProbesPath)
		if err != nil {
			if first == nil {
				first = err
			}
		} else {
			if err := o.sampler.WriteJSON(f); err != nil && first == nil {
				first = err
			}
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
		o.sampler = nil
	}
	return first
}

// ShardPath names shard i's copy of an n-shard run's output file: path
// itself for one shard or an unset path, path.lpI otherwise.
func ShardPath(path string, i, n int) string {
	if n == 1 || path == "" {
		return path
	}
	return fmt.Sprintf("%s.lp%d", path, i)
}

// SetupTargets names a simulated setup's components as probe targets.
func SetupTargets(s *core.Setup) ProbeTargets {
	return ProbeTargets{LM: s.LM, Dev: s.Dev, Flush: s.Flush}
}

// multiSink fans one event out to several sinks in order.
type multiSink []trace.Sink

// Emit implements trace.Sink.
func (m multiSink) Emit(e trace.Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Multi composes sinks, dropping nils: no sinks → nil (so the manager's
// nil gate stays closed and the hot path pays nothing), one sink → that
// sink unwrapped, several → a fan-out.
func Multi(sinks ...trace.Sink) trace.Sink {
	live := make(multiSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return live
	}
}

// Capture is an unbounded in-memory sink — the campaign/chaos harnesses
// use it to hold a failing run's full event stream for the JSONL dump.
type Capture struct {
	Events []trace.Event
}

// Emit implements trace.Sink.
func (c *Capture) Emit(e trace.Event) { c.Events = append(c.Events, e) }
