// Package harness assembles complete simulation runs: engine, log device,
// flush array, stable database, logging manager and workload generator,
// configured the way the paper's experiments are (section 3/4), executed
// for the configured runtime, and summarized.
package harness

import (
	"ellog/internal/core"
	"ellog/internal/sim"
	"ellog/internal/workload"
)

// Config is one full simulation configuration, mirroring the inputs of the
// paper's simulator: the statistical mix of transactions, the rate of
// transaction initiation, the flush rate (drives x transfer time), the
// number and size of generations, the recirculation flag and the runtime.
type Config struct {
	Seed     uint64
	LM       core.Params
	Flush    core.FlushConfig
	Workload workload.Config
}

// PaperDefaults returns the fixed experimental frame of section 4: 100 TPS
// for 500 simulated seconds over 10^7 objects, flushing through 10 drives
// at 25 ms per object write (400 flushes/s).
func PaperDefaults(fracLong float64) Config {
	return Config{
		Seed: 1,
		Flush: core.FlushConfig{
			Drives:     10,
			Transfer:   25 * sim.Millisecond,
			NumObjects: 10_000_000,
		},
		Workload: workload.Config{
			Mix:         workload.PaperMix(fracLong),
			ArrivalRate: 100,
			Runtime:     500 * sim.Second,
			NumObjects:  10_000_000,
		},
	}
}

// Result summarizes a run.
type Result struct {
	LM       core.Stats
	Workload workload.Stats
}

// Insufficient reports whether the disk budget failed to sustain the
// workload (a transaction was killed or emergency space was needed).
func (r Result) Insufficient() bool {
	return r.LM.Insufficient() || r.Workload.Killed > 0
}

// Run executes the configuration to its workload runtime and returns the
// summary.
func Run(cfg Config) (Result, error) {
	_, res, err := RunLive(cfg)
	return res, err
}

// Probe answers one question — does the disk budget sustain the workload? —
// and simulates no further than the answer needs: the engine stops at the
// first killed transaction, emergency block or refugee stall. A sufficient
// configuration never trips any of them, so its Result is that of a
// complete Run, field for field. An insufficient one returns
// Insufficient() == true with everything else partial: LM.Elapsed is the
// time of the verdict, not the horizon, and every counter, rate and peak
// covers only the run up to it. Read such a Result for its verdict alone.
func Probe(cfg Config) (Result, error) {
	live, err := Build(cfg)
	if err != nil {
		return Result{}, err
	}
	live.Setup.LM.SetInsufficientHook(live.Setup.Eng.Stop)
	live.Setup.Eng.Run(cfg.Workload.Runtime)
	return live.result(), nil
}

// Live exposes the assembled components of a run for callers that need to
// crash it mid-flight (recovery experiments) or inspect state.
type Live struct {
	Setup *core.Setup
	Gen   *workload.Generator
}

// RunLive executes the configuration and also returns the live components.
func RunLive(cfg Config) (*Live, Result, error) {
	live, err := Build(cfg)
	if err != nil {
		return nil, Result{}, err
	}
	live.Setup.Eng.Run(cfg.Workload.Runtime)
	return live, live.result(), nil
}

func (l *Live) result() Result {
	return Result{LM: l.Setup.LM.Stats(), Workload: l.Gen.Stats()}
}

// Build assembles a run without executing it; callers drive the engine
// themselves (e.g. to crash it at a chosen instant).
func Build(cfg Config) (*Live, error) {
	eng := sim.NewEngine(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)
	setup, err := core.NewSetup(eng, cfg.LM, cfg.Flush)
	if err != nil {
		return nil, err
	}
	gen, err := workload.New(eng, setup.LM, cfg.Workload)
	if err != nil {
		return nil, err
	}
	gen.Start()
	return &Live{Setup: setup, Gen: gen}, nil
}
