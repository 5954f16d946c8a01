// Package config provides a JSON-serializable description of a simulation
// run, mirroring the input parameters of the paper's simulator (section 3):
// the statistical mix of transactions (pdf), the rate of transaction
// initiation, the flush rate (drives and per-object transfer time), the
// number and size of generations, the recirculation flag and the runtime.
package config

import (
	"encoding/json"
	"fmt"
	"os"

	"ellog/internal/core"
	"ellog/internal/fault"
	"ellog/internal/harness"
	"ellog/internal/multilog"
	"ellog/internal/obs"
	"ellog/internal/sim"
	"ellog/internal/workload"
)

// TxTypeJSON is one transaction type of the pdf. Durations are in
// milliseconds for JSON friendliness.
type TxTypeJSON struct {
	Name       string  `json:"name"`
	Prob       float64 `json:"prob"`
	LifetimeMS int64   `json:"lifetime_ms"`
	NumRecords int     `json:"num_records"`
	RecordSize int     `json:"record_size"`
}

// SimConfig is the JSON form of a full simulation run.
type SimConfig struct {
	Seed uint64 `json:"seed"`

	// Technique: "el" or "fw".
	Mode        string `json:"mode"`
	Generations []int  `json:"generations"`
	Recirculate bool   `json:"recirculate"`
	// LifetimeHintsMS optionally enables the section-6 placement
	// extension: boundary lifetimes (ms) between consecutive generations.
	LifetimeHintsMS []int64 `json:"lifetime_hints_ms,omitempty"`
	// GroupCommitTimeoutMS bounds commit latency in quiet generations
	// (0 = pure group commit, as in the paper).
	GroupCommitTimeoutMS int64 `json:"group_commit_timeout_ms,omitempty"`

	// Workload. ArrivalRate is the rate of one log: a sharded run (Shards
	// > 1) initiates ArrivalRate on every shard, Shards × ArrivalRate in
	// all.
	Mix         []TxTypeJSON `json:"mix"`
	ArrivalRate float64      `json:"arrival_rate_tps"`
	RuntimeS    float64      `json:"runtime_s"`
	NumObjects  uint64       `json:"num_objects"`

	// Flushing.
	FlushDrives     int   `json:"flush_drives"`
	FlushTransferMS int64 `json:"flush_transfer_ms"`

	// Sharding (multilog). Shards > 1 runs the configuration as a
	// shared-nothing sharded system: each shard gets its own log of
	// Generations blocks, its own FlushDrives, an equal slice of NumObjects
	// and its own ArrivalRate. CrossFrac is the share of each shard's
	// arrivals that start as two-branch transactions with a branch on
	// another shard, committed by 2PC in the log. Zero values mean the
	// classic single-log run.
	Shards    int     `json:"shards,omitempty"`
	CrossFrac float64 `json:"cross_shard_frac,omitempty"`

	// Faults optionally arms the internal/fault injection plan. Omitted —
	// or present with all probabilities zero — means faults-off, and the
	// run is byte-identical to one with no plan attached at all. Fault
	// parameters deliberately live outside the harness configuration so
	// result-cache keys and seed fan-outs are unaffected by them.
	Faults *FaultsJSON `json:"faults,omitempty"`

	// Observability optionally arms the internal/obs layer (probe sampler
	// + streaming trace export). Like Faults it lives outside the harness
	// configuration: sampling and streaming never change a run's results,
	// so they must not change its cache identity either.
	Observability *ObsJSON `json:"observability,omitempty"`
}

// ObsJSON is the JSON form of an observability configuration.
type ObsJSON struct {
	// SampleIntervalMS is the probe cadence (default 100 ms).
	SampleIntervalMS int64 `json:"sample_interval_ms,omitempty"`
	// MaxPoints bounds each sampled series (default 512).
	MaxPoints int `json:"max_points,omitempty"`
	// TracePath streams every trace event to this file.
	TracePath string `json:"trace_path,omitempty"`
	// ProbesPath writes the sampled series snapshot to this file.
	ProbesPath string `json:"probes_path,omitempty"`
}

// ToObs converts to the obs package's native configuration.
func (o ObsJSON) ToObs() obs.Config {
	return obs.Config{
		SampleInterval: sim.Time(o.SampleIntervalMS) * sim.Millisecond,
		MaxPoints:      o.MaxPoints,
		TracePath:      o.TracePath,
		ProbesPath:     o.ProbesPath,
	}
}

// FaultsJSON is the JSON form of a fault plan (durations in milliseconds).
type FaultsJSON struct {
	Seed          uint64  `json:"seed"`
	WriteFailProb float64 `json:"write_fail_prob,omitempty"`
	CorruptProb   float64 `json:"corrupt_prob,omitempty"`
	SlowProb      float64 `json:"slow_prob,omitempty"`
	SlowMaxMS     int64   `json:"slow_max_ms,omitempty"`
	StallProb     float64 `json:"stall_prob,omitempty"`
	StallMaxMS    int64   `json:"stall_max_ms,omitempty"`
	// Retry policy for the logging manager under transient write errors
	// (0 = package defaults: 3 retries, 1 ms initial backoff, doubling).
	MaxRetries     int   `json:"max_retries,omitempty"`
	RetryBackoffMS int64 `json:"retry_backoff_ms,omitempty"`
}

// ToFault converts to the fault package's native configuration.
func (f FaultsJSON) ToFault() fault.Config {
	return fault.Config{
		Seed:          f.Seed,
		WriteFailProb: f.WriteFailProb,
		CorruptProb:   f.CorruptProb,
		SlowProb:      f.SlowProb,
		SlowMax:       sim.Time(f.SlowMaxMS) * sim.Millisecond,
		StallProb:     f.StallProb,
		StallMax:      sim.Time(f.StallMaxMS) * sim.Millisecond,
		MaxRetries:    f.MaxRetries,
		RetryBackoff:  sim.Time(f.RetryBackoffMS) * sim.Millisecond,
	}
}

// Default returns the paper's 5%-mix EL configuration at its measured
// minimum sizes.
func Default() SimConfig {
	return SimConfig{
		Seed:        1,
		Mode:        "el",
		Generations: []int{18, 16},
		Recirculate: false,
		Mix: []TxTypeJSON{
			{Name: "short-1s", Prob: 0.95, LifetimeMS: 1000, NumRecords: 2, RecordSize: 100},
			{Name: "long-10s", Prob: 0.05, LifetimeMS: 10000, NumRecords: 4, RecordSize: 100},
		},
		ArrivalRate:     100,
		RuntimeS:        500,
		NumObjects:      10_000_000,
		FlushDrives:     10,
		FlushTransferMS: 25,
	}
}

// Load reads a SimConfig from a JSON file.
func Load(path string) (SimConfig, error) {
	var cfg SimConfig
	data, err := os.ReadFile(path)
	if err != nil {
		return cfg, err
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		return cfg, fmt.Errorf("config %s: %w", path, err)
	}
	return cfg, nil
}

// Save writes the configuration as indented JSON.
func (c SimConfig) Save(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ToHarness converts to a runnable harness configuration.
func (c SimConfig) ToHarness() (harness.Config, error) {
	var mode core.Mode
	switch c.Mode {
	case "el", "EL", "":
		mode = core.ModeEphemeral
	case "fw", "FW":
		mode = core.ModeFirewall
	default:
		return harness.Config{}, fmt.Errorf("config: unknown mode %q (want \"el\" or \"fw\")", c.Mode)
	}
	mix := make(workload.Mix, 0, len(c.Mix))
	for _, t := range c.Mix {
		mix = append(mix, workload.TxType{
			Name:       t.Name,
			Prob:       t.Prob,
			Lifetime:   sim.Time(t.LifetimeMS) * sim.Millisecond,
			NumRecords: t.NumRecords,
			RecordSize: t.RecordSize,
		})
	}
	var hints []sim.Time
	for _, h := range c.LifetimeHintsMS {
		hints = append(hints, sim.Time(h)*sim.Millisecond)
	}
	cfg := harness.Config{
		Seed: c.Seed,
		LM: core.Params{
			Mode:               mode,
			GenSizes:           append([]int(nil), c.Generations...),
			Recirculate:        c.Recirculate,
			HintBoundaries:     hints,
			GroupCommitTimeout: sim.Time(c.GroupCommitTimeoutMS) * sim.Millisecond,
		},
		Flush: core.FlushConfig{
			Drives:     c.FlushDrives,
			Transfer:   sim.Time(c.FlushTransferMS) * sim.Millisecond,
			NumObjects: c.NumObjects,
		},
		Workload: workload.Config{
			Mix:         mix,
			ArrivalRate: c.ArrivalRate,
			Runtime:     sim.Time(c.RuntimeS * float64(sim.Second)),
			NumObjects:  c.NumObjects,
			Hints:       len(hints) > 0,
		},
	}
	if err := mix.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// ToPDES converts to a runnable sharded configuration: every shard
// becomes one logical process with its own slice of the object space and
// its own ArrivalRate, and CrossFrac becomes the 2PC overlay's share of
// each shard's arrivals. workers is the goroutine count — pure scheduling,
// any value gives byte-identical results. A single shard is allowed (it
// reduces exactly to the sequential harness run).
func (c SimConfig) ToPDES(workers int) (multilog.PDESConfig, error) {
	var pcfg multilog.PDESConfig
	if c.Shards < 1 {
		return pcfg, fmt.Errorf("config: pdes run needs shards >= 1, have %d", c.Shards)
	}
	if c.Faults != nil && c.Faults.ToFault().Active() {
		return pcfg, Unsupported("sharded", "faults",
			"drop the faults section; fault injection is single-log only, and elchaos -campaign -shards crash-tests sharded runs")
	}
	if c.NumObjects%uint64(c.Shards) != 0 {
		return pcfg, fmt.Errorf("config: %d objects do not split evenly over %d shards", c.NumObjects, c.Shards)
	}
	hcfg, err := c.ToHarness()
	if err != nil {
		return pcfg, err
	}
	pcfg = multilog.PDESConfig{
		Seed:      hcfg.Seed,
		Shards:    c.Shards,
		Workers:   workers,
		LM:        hcfg.LM,
		Flush:     hcfg.Flush,
		Workload:  hcfg.Workload,
		CrossFrac: c.CrossFrac,
	}
	pcfg.Flush.NumObjects = c.NumObjects / uint64(c.Shards)
	return pcfg, nil
}
