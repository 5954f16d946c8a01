// PDES binding: the only way to build a sharded run.
//
// BuildPDES maps every shard onto one logical process of a
// sim.ParallelEngine: the shard's log device, flush array, stable database,
// logging manager and workload generator all attach to that LP's embedded
// engine, so everything a shard does is LP-local — the obligation the
// parallel engine places on the model. The only cross-LP channel is the
// 2PC overlay (pdes_cross.go), whose every protocol step travels as an
// LP.Send with the engine's lookahead as its delay: cross-shard messages
// ARE the cross-LP events, and the lookahead
// doubles as the inter-shard message latency. With the default lookahead —
// the 15 ms tau_DiskWrite already in the model — that is a plausible
// same-machine interconnect delay and an enormous PDES lookahead at once.
//
// Identity contract. A 1-shard PDES run reduces bit-for-bit to the classic
// harness.Build run of the same configuration, because LP 0 is seeded with
// exactly the words harness.Build feeds sim.NewEngine and the generator
// wiring is call-for-call identical (pdes_test.go proves it).
package multilog

import (
	"fmt"
	"sort"
	"strings"

	"ellog/internal/core"
	"ellog/internal/fault"
	"ellog/internal/logrec"
	"ellog/internal/metrics"
	"ellog/internal/sim"
	"ellog/internal/workload"
)

// Transaction-identifier layout. Each LP owns a disjoint stride of the tid
// space; within a stride, the high bit separates the cross-shard overlay's
// transactions from the local generator's, so a kill callback can be
// demultiplexed from the tid alone. A 500 s run at paper rates uses a few
// hundred thousand tids per LP — nowhere near the 2^31 per class.
const (
	pdesTidStride uint64 = 1 << 32
	pdesCrossBit  uint64 = 1 << 31
)

// pdesCrossTid builds the overlay's n-th transaction identifier homed on
// the given LP.
func pdesCrossTid(lp int, n uint64) logrec.TxID {
	return logrec.TxID(uint64(lp)*pdesTidStride + pdesCrossBit + n)
}

// PDESConfig parameterizes a sharded run.
type PDESConfig struct {
	Seed   uint64
	Shards int // logical processes; one full EL instance each
	// Lookahead is the conservative window width and the cross-shard
	// message latency. Zero defaults to the logging manager's block write
	// latency (tau_DiskWrite, 15 ms) — the physical constant the ROADMAP
	// names as the model's natural lookahead source.
	Lookahead sim.Time
	LM        core.Params
	Flush     core.FlushConfig // per shard: own drives, own object range
	// Workload is the per-shard traffic template. Mix, Runtime, Epsilon,
	// Hints and Arrival apply as given; ArrivalRate is the per-shard total
	// (local + cross), so the machine runs Shards × ArrivalRate. NumObjects
	// and TidBase are overridden by the binding — each LP's generator works
	// in its shard's local object coordinates with an LP-strided tid base.
	Workload workload.Config
	// CrossFrac in [0, 1) is the fraction of each shard's arrivals
	// initiated as cross-shard two-branch 2PC transactions by the overlay;
	// the local generator keeps the rest. Zero runs pure shared-nothing
	// traffic with no cross-LP events at all.
	CrossFrac float64
}

// pdesReserveDiv carves 1/8 of each shard's object range out of the local
// generator's draw space for the cross-shard overlay, so overlay and
// generator can never contend for an object (they keep separate held-sets).
const pdesReserveDiv = 8

// ShardLP is one shard bound to its logical process.
type ShardLP struct {
	LP    *sim.LP
	Setup *core.Setup
	Gen   *workload.Generator
	sink  *lpSink
	cross *crossArm // nil when CrossFrac == 0
}

// PDESLive is an assembled sharded run.
type PDESLive struct {
	PE     *sim.ParallelEngine
	Shards []*ShardLP
	cfg    PDESConfig
}

// BuildPDES assembles a sharded run without executing it.
func BuildPDES(cfg PDESConfig) (*PDESLive, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("multilog: pdes needs at least one shard, got %d", cfg.Shards)
	}
	if cfg.CrossFrac < 0 || cfg.CrossFrac >= 1 {
		return nil, fmt.Errorf("multilog: pdes cross fraction %v outside [0,1) — some local traffic must remain", cfg.CrossFrac)
	}
	if cfg.Flush.NumObjects == 0 {
		return nil, fmt.Errorf("multilog: pdes shard object range must be positive")
	}
	if cfg.CrossFrac > 0 && cfg.Shards < 2 {
		return nil, fmt.Errorf("multilog: pdes cross fraction %v needs at least 2 shards, have %d", cfg.CrossFrac, cfg.Shards)
	}
	lookahead := cfg.Lookahead
	if lookahead == 0 {
		lookahead = cfg.LM.WithDefaults().WriteLatency
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("multilog: pdes lookahead %v must be positive", lookahead)
	}
	genObjects := cfg.Flush.NumObjects
	var reserve uint64
	if cfg.CrossFrac > 0 {
		reserve = cfg.Flush.NumObjects / pdesReserveDiv
		if reserve == 0 {
			return nil, fmt.Errorf("multilog: pdes object range %d too small to carve a cross-shard reserve", cfg.Flush.NumObjects)
		}
		genObjects = cfg.Flush.NumObjects - reserve
	}

	// Seeded exactly like harness.Build seeds its engine, so LP 0 of a
	// 1-shard run is bit-for-bit the classic sequential engine.
	pe := sim.NewParallelEngine(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15, cfg.Shards, lookahead)
	live := &PDESLive{PE: pe, cfg: cfg}
	var arms []*crossArm
	for i := 0; i < cfg.Shards; i++ {
		lp := pe.LP(i)
		setup, err := core.NewSetup(lp.Engine, cfg.LM, cfg.Flush)
		if err != nil {
			return nil, fmt.Errorf("multilog: pdes shard %d: %w", i, err)
		}
		sink := &lpSink{lm: setup.LM}
		wcfg := cfg.Workload
		wcfg.NumObjects = genObjects
		wcfg.TidBase = uint64(i) * pdesTidStride
		wcfg.ArrivalRate = cfg.Workload.ArrivalRate * (1 - cfg.CrossFrac)
		gen, err := workload.New(lp.Engine, sink, wcfg)
		if err != nil {
			return nil, fmt.Errorf("multilog: pdes shard %d: %w", i, err)
		}
		gen.Start()
		shard := &ShardLP{LP: lp, Setup: setup, Gen: gen, sink: sink}
		if cfg.CrossFrac > 0 {
			arm := newCrossArm(lp, setup.LM, i, cfg.Shards, lookahead, &cfg, genObjects, reserve)
			shard.cross = arm
			sink.arm = arm
			arms = append(arms, arm)
		}
		// The manager's kill callback runs through the sink's demux: local
		// tids go to the generator, overlay tids to the cross arm.
		setup.LM.SetKillHandler(sink.dispatchKill)
		live.Shards = append(live.Shards, shard)
	}
	for _, arm := range arms {
		arm.peers = arms
		arm.start()
	}
	return live, nil
}

// Run executes the simulation to the configured workload runtime.
func (pl *PDESLive) Run() {
	pl.PE.Run(pl.cfg.Workload.Runtime)
}

// AttachFaults arms one fault plan per shard, LP-locally like everything
// else a shard does. Shard i's seed is fc.Seed moved by i golden-ratio
// strides: shard 0 draws from exactly fc.Seed, so a 1-shard faulty run is
// the single-log run with fc attached.
func (pl *PDESLive) AttachFaults(fc fault.Config) ([]*fault.Plan, error) {
	plans := make([]*fault.Plan, len(pl.Shards))
	for i, s := range pl.Shards {
		sfc := fc
		sfc.Seed += uint64(i) * 0x9e3779b97f4a7c15
		p, err := fault.Attach(s.Setup, sfc)
		if err != nil {
			return nil, fmt.Errorf("multilog: shard %d: %w", i, err)
		}
		plans[i] = p
	}
	return plans, nil
}

// RunPDES builds, runs and summarizes a sharded run.
func RunPDES(cfg PDESConfig) (*PDESLive, PDESStats, error) {
	live, err := BuildPDES(cfg)
	if err != nil {
		return nil, PDESStats{}, err
	}
	live.Run()
	return live, live.Stats(), nil
}

// lpSink is the LP-local transaction interface handed to the workload
// generator. It forwards to the shard's manager unchanged — so a 1-shard
// base run makes exactly the calls harness.Build's direct wiring makes —
// and demultiplexes the manager's kill callback between the generator and
// the cross-shard overlay by tid class.
type lpSink struct {
	lm      *core.Manager
	arm     *crossArm // nil in base mode
	genKill func(logrec.TxID)
}

func (s *lpSink) BeginHinted(tid logrec.TxID, expected sim.Time) { s.lm.BeginHinted(tid, expected) }

func (s *lpSink) WriteData(tid logrec.TxID, oid logrec.OID, size int) logrec.LSN {
	return s.lm.WriteData(tid, oid, size)
}

func (s *lpSink) Commit(tid logrec.TxID, onDurable func()) { s.lm.Commit(tid, onDurable) }

func (s *lpSink) SetKillHandler(fn func(logrec.TxID)) { s.genKill = fn }

// dispatchKill routes a space-pressure kill to whoever initiated the
// victim: overlay tids carry the cross bit within their LP stride.
func (s *lpSink) dispatchKill(tid logrec.TxID) {
	if s.arm != nil && uint64(tid)%pdesTidStride >= pdesCrossBit {
		s.arm.killed(tid)
		return
	}
	if s.genKill != nil {
		s.genKill(tid)
	}
}

// PDESStats aggregates a sharded run. Every field is a pure function of
// (seed, config).
type PDESStats struct {
	Shards    int
	Lookahead sim.Time
	Windows   uint64 // non-empty conservative windows executed
	Delivered uint64 // cross-LP events merged at barriers
	Events    uint64 // total events dispatched across all LPs

	PerShard    []core.Stats
	TotalBlocks int
	TotalWrites uint64
	Bandwidth   float64
	Killed      uint64
	// MemPeakBound sums the per-shard memory peaks. LPs may not touch
	// shared state mid-window, so the true simultaneous peak — shards peak
	// at different times — is unobservable and this upper bound is
	// reported instead.
	MemPeakBound float64

	// Local (generator) traffic, aggregated across shards. Latency moments
	// come from the merged raw samples, not from merging per-shard
	// quantiles.
	Started   uint64
	Committed uint64
	GenKilled uint64
	PerType   map[string]uint64
	E2EMean   float64
	E2EP99    float64

	// Cross-shard overlay traffic.
	CrossStarted   uint64
	CrossCommitted uint64
	CrossAborted   uint64
	CrossE2EMean   float64
	CrossE2EP99    float64
}

// Stats snapshots the whole run, shard by shard in index order.
func (pl *PDESLive) Stats() PDESStats {
	st := PDESStats{
		Shards:    len(pl.Shards),
		Lookahead: pl.PE.Lookahead(),
		Windows:   pl.PE.Windows(),
		Delivered: pl.PE.Delivered(),
		Events:    pl.PE.Fired(),
		PerType:   make(map[string]uint64),
	}
	var e2e, crossE2E metrics.Histogram
	for _, s := range pl.Shards {
		lm := s.Setup.LM.Stats()
		st.PerShard = append(st.PerShard, lm)
		st.TotalBlocks += lm.TotalBlocks
		st.TotalWrites += lm.TotalWrites
		st.Bandwidth += lm.TotalBandwidth
		st.Killed += lm.Killed
		st.MemPeakBound += lm.MemPeakBytes

		ws := s.Gen.Stats()
		st.Started += ws.Started
		st.Committed += ws.Committed
		st.GenKilled += ws.Killed
		// Key-order independence: addition commutes, so ranging the map is
		// deterministic in effect even though iteration order is not.
		for name, n := range ws.PerType {
			st.PerType[name] += n
		}
		s.Gen.MergeLatencies(&e2e)

		if s.cross != nil {
			st.CrossStarted += s.cross.started.Count()
			st.CrossCommitted += s.cross.committed.Count()
			st.CrossAborted += s.cross.aborted.Count()
			e2e.Merge(&s.cross.e2e)
			crossE2E.Merge(&s.cross.e2e)
		}
	}
	st.E2EMean = e2e.Mean()
	st.E2EP99 = e2e.Quantile(0.99)
	st.CrossE2EMean = crossE2E.Mean()
	st.CrossE2EP99 = crossE2E.Quantile(0.99)
	return st
}

// Insufficient reports whether any shard exceeded its disk budget.
func (pl *PDESLive) Insufficient() bool {
	for _, s := range pl.Shards {
		if s.Setup.LM.Insufficient() {
			return true
		}
	}
	return false
}

// Setups lists the shards' components in LP order: the input of
// RecoverAll and RecoverShard.
func (pl *PDESLive) Setups() []*core.Setup {
	parts := make([]*core.Setup, len(pl.Shards))
	for i, s := range pl.Shards {
		parts[i] = s.Setup
	}
	return parts
}

// Oracle joins every shard's committed writes — its generator's oracle and
// both branches of every acknowledged overlay transaction — into the
// latest committed LSN per object, in global coordinates. It reads every
// LP, so call it only between Run calls.
func (pl *PDESLive) Oracle() map[logrec.OID]logrec.LSN {
	width := pl.cfg.Flush.NumObjects
	out := make(map[logrec.OID]logrec.LSN)
	note := func(s int, oid logrec.OID, lsn logrec.LSN) {
		g := globalOID(s, width, oid)
		if out[g] < lsn {
			out[g] = lsn
		}
	}
	for i, s := range pl.Shards {
		for oid, lsn := range s.Gen.Oracle() {
			note(i, oid, lsn)
		}
		if s.cross == nil {
			continue
		}
		for tid, remote := range s.cross.decided {
			if w, ok := s.cross.wrote[tid]; ok {
				note(i, w.oid, w.lsn)
			}
			if w, ok := pl.Shards[remote].cross.wrote[tid]; ok {
				note(remote, w.oid, w.lsn)
			}
		}
	}
	return out
}

// Acked reports whether transaction tid was acknowledged: by its shard's
// generator for a local transaction, by its home shard's durable DECIDE
// for an overlay one. Like Oracle, call it only between Run calls.
func (pl *PDESLive) Acked(tid logrec.TxID) bool {
	s := pl.Shards[uint64(tid)/pdesTidStride]
	if uint64(tid)%pdesTidStride < pdesCrossBit {
		return s.Gen.TxInfo(tid).Acked
	}
	_, ok := s.cross.decided[tid]
	return ok
}

// String renders a deterministic multi-line report: map-backed sections
// are emitted in sorted key order, and no wall-clock appears — the report
// is a fixed function of (seed, config).
func (st PDESStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pdes: %d shards, lookahead %v, %d windows, %d cross-LP events, %d events\n",
		st.Shards, st.Lookahead, st.Windows, st.Delivered, st.Events)
	fmt.Fprintf(&b, "  local: %d started, %d committed, %d killed; e2e mean %.1f ms p99 %.1f ms\n",
		st.Started, st.Committed, st.GenKilled, st.E2EMean*1e3, st.E2EP99*1e3)
	names := make([]string, 0, len(st.PerType))
	for name := range st.PerType {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "    type %s: %d\n", name, st.PerType[name])
	}
	if st.CrossStarted > 0 {
		fmt.Fprintf(&b, "  cross: %d started, %d committed, %d aborted; e2e mean %.1f ms p99 %.1f ms\n",
			st.CrossStarted, st.CrossCommitted, st.CrossAborted, st.CrossE2EMean*1e3, st.CrossE2EP99*1e3)
	}
	fmt.Fprintf(&b, "  log: %d blocks, %d writes, %.2f writes/s, %d space kills, mem peak bound %.0f B\n",
		st.TotalBlocks, st.TotalWrites, st.Bandwidth, st.Killed, st.MemPeakBound)
	return b.String()
}
