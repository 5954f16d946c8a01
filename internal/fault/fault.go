// Package fault is the deterministic fault-injection and crash-campaign
// subsystem. It perturbs the simulated I/O substrate — the log device and
// the flush-disk array — with seeded, reproducible faults: transient write
// errors, silent corruption, latency inflation and per-drive stalls. The
// paper's model assumes a disciplined disk ("block writes are atomic",
// section 2.2); this package exists to check the reproduction's recovery
// story when that discipline is relaxed, without disturbing the fault-free
// model: every hook is nil or disabled by default, and a run with no plan
// attached is byte-for-byte identical to a build without this package.
//
// Two usage modes:
//
//   - Chaos: Attach a Plan built from a Config with non-zero probabilities
//     to a live setup; the run proceeds under fire and the manager's
//     retry/abandon machinery (core.EnableFaultRetries) keeps the
//     acknowledged-commit contract.
//   - Campaign: RunCampaign sweeps deterministic crash points over a
//     fault-free run — after every block-write completion, and mid-write at
//     torn boundaries — re-running recovery at each point and verifying the
//     recovered database against the workload's committed-transaction
//     oracle.
package fault

import (
	"fmt"
	"math/rand/v2"

	"ellog/internal/blockdev"
	"ellog/internal/core"
	"ellog/internal/metrics"
	"ellog/internal/sim"
	"ellog/internal/trace"
)

// Kind classifies injected faults (carried in trace.EvFault's N field).
type Kind int

const (
	// KindWriteFail: a block write returned a transient error.
	KindWriteFail Kind = iota + 1
	// KindCorrupt: a block write silently flipped a durable bit.
	KindCorrupt
	// KindSlow: a block write's latency was inflated.
	KindSlow
	// KindStall: a flush drive stalled before a service.
	KindStall
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case KindWriteFail:
		return "write-fail"
	case KindCorrupt:
		return "corrupt"
	case KindSlow:
		return "slow"
	case KindStall:
		return "stall"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config parameterizes a fault plan. The zero value injects nothing.
// Probabilities are per opportunity: per block write for WriteFailProb,
// CorruptProb and SlowProb, per flush-drive service for StallProb.
type Config struct {
	Seed uint64

	WriteFailProb float64 // transient write error
	CorruptProb   float64 // silent single-bit corruption of the durable image
	SlowProb      float64 // latency inflation
	SlowMax       sim.Time
	StallProb     float64 // flush-drive stall before a service
	StallMax      sim.Time

	// Retry policy handed to core.EnableFaultRetries. Zero values select
	// the defaults (3 retries, 1 ms initial backoff, doubling).
	MaxRetries   int
	RetryBackoff sim.Time
}

// WithDefaults fills zero-valued policy fields.
func (c Config) WithDefaults() Config {
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = sim.Millisecond
	}
	if c.SlowMax == 0 {
		c.SlowMax = 15 * sim.Millisecond
	}
	if c.StallMax == 0 {
		c.StallMax = 25 * sim.Millisecond
	}
	return c
}

// Validate rejects out-of-range probabilities.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"WriteFailProb", c.WriteFailProb},
		{"CorruptProb", c.CorruptProb},
		{"SlowProb", c.SlowProb},
		{"StallProb", c.StallProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: %s %v outside [0, 1]", p.name, p.v)
		}
	}
	if c.MaxRetries < 0 || c.RetryBackoff < 0 || c.SlowMax < 0 || c.StallMax < 0 {
		return fmt.Errorf("fault: negative policy value")
	}
	return nil
}

// Active reports whether any fault has a non-zero probability.
func (c Config) Active() bool {
	return c.WriteFailProb > 0 || c.CorruptProb > 0 || c.SlowProb > 0 || c.StallProb > 0
}

// Stats counts injected faults.
type Stats struct {
	WriteFails  uint64
	Corruptions uint64
	Slowdowns   uint64
	Stalls      uint64
}

// Plan is a seeded fault injector: a deterministic function of its own
// PCG stream, independent of the simulation's random stream, so the same
// (workload seed, fault seed) pair replays the same faults at the same
// opportunities.
type Plan struct {
	eng  *sim.Engine
	cfg  Config
	rng  *rand.Rand
	sink trace.Sink

	writeFails, corruptions metrics.Counter
	slowdowns, stalls       metrics.Counter
}

// NewPlan builds a plan for the given engine (used only for timestamps on
// trace events) and validated config.
func NewPlan(eng *sim.Engine, cfg Config) (*Plan, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Plan{
		eng: eng,
		cfg: cfg,
		rng: rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xda3e39cb94b95bdb)),
	}, nil
}

// SetTracer attaches a sink receiving trace.EvFault events; nil detaches.
func (p *Plan) SetTracer(s trace.Sink) { p.sink = s }

func (p *Plan) emit(k Kind, gen int) {
	if p.sink == nil {
		return
	}
	p.sink.Emit(trace.Event{At: p.eng.Now(), Kind: trace.EvFault, Gen: gen, N: int(k)})
}

// BlockWriteFault implements blockdev.Injector. Draw order is fixed
// (slow, fail, corrupt) so the random stream is consumed identically for
// a given config regardless of outcomes.
func (p *Plan) BlockWriteFault(gen, size int) blockdev.WriteFault {
	var f blockdev.WriteFault
	if p.cfg.SlowProb > 0 && p.rng.Float64() < p.cfg.SlowProb {
		f.Extra = sim.Time(1 + p.rng.Int64N(int64(p.cfg.SlowMax)))
		p.slowdowns.Inc()
		p.emit(KindSlow, gen)
	}
	if p.cfg.WriteFailProb > 0 && p.rng.Float64() < p.cfg.WriteFailProb {
		f.Fail = true
		p.writeFails.Inc()
		p.emit(KindWriteFail, gen)
		return f
	}
	if p.cfg.CorruptProb > 0 && p.rng.Float64() < p.cfg.CorruptProb {
		if size < 1 {
			size = 1
		}
		f.CorruptOff = p.rng.IntN(size)
		f.CorruptMask = 1 << p.rng.IntN(8)
		p.corruptions.Inc()
		p.emit(KindCorrupt, gen)
	}
	return f
}

// FlushStall is the flushdisk stall hook: extra time a drive spends
// stalled before its next service.
func (p *Plan) FlushStall(drive int) sim.Time {
	if p.cfg.StallProb > 0 && p.rng.Float64() < p.cfg.StallProb {
		p.stalls.Inc()
		p.emit(KindStall, -1)
		return sim.Time(1 + p.rng.Int64N(int64(p.cfg.StallMax)))
	}
	return 0
}

// Stats snapshots the injection counters.
func (p *Plan) Stats() Stats {
	return Stats{
		WriteFails:  p.writeFails.Count(),
		Corruptions: p.corruptions.Count(),
		Slowdowns:   p.slowdowns.Count(),
		Stalls:      p.stalls.Count(),
	}
}

// Add accumulates o into s: the totals of several plans, one per shard.
func (s *Stats) Add(o Stats) {
	s.WriteFails += o.WriteFails
	s.Corruptions += o.Corruptions
	s.Slowdowns += o.Slowdowns
	s.Stalls += o.Stalls
}

// Attach wires a plan into a live setup: the log device gets the injector,
// the flush array gets the stall hook, and the manager's bounded
// retry-with-backoff path is armed. Returns the attached plan.
func Attach(s *core.Setup, cfg Config) (*Plan, error) {
	cfg = cfg.WithDefaults()
	p, err := NewPlan(s.Eng, cfg)
	if err != nil {
		return nil, err
	}
	s.Dev.SetInjector(p)
	s.Flush.SetStall(p.FlushStall)
	s.LM.EnableFaultRetries(cfg.MaxRetries, cfg.RetryBackoff)
	return p, nil
}
