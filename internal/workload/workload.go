// Package workload implements the paper's transaction model (section 3,
// Figure 3): the user specifies transaction types — probability of
// occurrence, duration, number of data log records, record size — and an
// arrival rate. Transactions are initiated at exactly regular intervals; a
// transaction of lifetime T writes BEGIN at t0, its N data records at
// equally spaced intervals (T-epsilon)/N apart with the last at t0+T-epsilon,
// and COMMIT at t0+T, then waits for the logging manager's group-commit
// acknowledgement (t4) to actually commit.
//
// Object identifiers are drawn uniformly from [0, NumObjects), rejecting
// any oid already updated by a still-active transaction, exactly as the
// paper specifies.
package workload

import (
	"fmt"
	"math"

	"ellog/internal/logrec"
	"ellog/internal/metrics"
	"ellog/internal/sim"
)

// TxType describes one class of transactions.
type TxType struct {
	Name       string
	Prob       float64  // probability of occurrence
	Lifetime   sim.Time // T: duration from BEGIN to the COMMIT record
	NumRecords int      // data log records written
	RecordSize int      // bytes per data record
}

// Mix is a probability distribution over transaction types.
type Mix []TxType

// Validate checks the distribution.
func (m Mix) Validate() error {
	if len(m) == 0 {
		return fmt.Errorf("workload: empty mix")
	}
	sum := 0.0
	for i, t := range m {
		if t.Prob < 0 {
			return fmt.Errorf("workload: type %d has negative probability", i)
		}
		if t.Lifetime <= 0 || t.NumRecords <= 0 || t.RecordSize <= 0 {
			return fmt.Errorf("workload: type %d (%s) has non-positive parameters", i, t.Name)
		}
		sum += t.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("workload: probabilities sum to %v, want 1", sum)
	}
	return nil
}

// PaperMix returns the two-type workload used for all experiments in
// section 4: a 1 s transaction writing two 100-byte records and a 10 s
// transaction writing four 100-byte records, with fracLong the fraction of
// the long type (0.05 to 0.40 in the paper).
func PaperMix(fracLong float64) Mix {
	return Mix{
		{Name: "short-1s", Prob: 1 - fracLong, Lifetime: 1 * sim.Second, NumRecords: 2, RecordSize: 100},
		{Name: "long-10s", Prob: fracLong, Lifetime: 10 * sim.Second, NumRecords: 4, RecordSize: 100},
	}
}

// UpdatesPerSecond returns the expected data-record rate at the given
// arrival rate (the paper quotes 210/s at a 5% mix and 280/s at 40%).
func (m Mix) UpdatesPerSecond(arrivalRate float64) float64 {
	exp := 0.0
	for _, t := range m {
		exp += t.Prob * float64(t.NumRecords)
	}
	return exp * arrivalRate
}

// LogBytesPerSecond returns the expected log payload rate, counting
// txRecSize bytes each for BEGIN and COMMIT.
func (m Mix) LogBytesPerSecond(arrivalRate float64, txRecSize int) float64 {
	exp := 0.0
	for _, t := range m {
		exp += t.Prob * (float64(t.NumRecords*t.RecordSize) + 2*float64(txRecSize))
	}
	return exp * arrivalRate
}

// DefaultEpsilon is the paper's fixed 1 ms gap between a transaction's last
// data record and its COMMIT record.
const DefaultEpsilon = sim.Millisecond

// Config parameterizes a Generator, mirroring the paper's simulator inputs.
type Config struct {
	Mix         Mix
	ArrivalRate float64  // transactions per second (100 in the paper)
	Runtime     sim.Time // how long to initiate transactions (500 s)
	NumObjects  uint64   // object space (10^7)
	Epsilon     sim.Time // defaults to 1 ms
	Hints       bool     // pass expected lifetimes to the LM (section 6 extension)
	Arrival     Arrival  // initiation process (default: the paper's deterministic)
	// TidBase offsets transaction identifiers: shard p of a sharded run
	// gives its generator a disjoint base so tids are globally unique
	// (multilog).
	TidBase uint64
}

// LogManager is the interface the generator drives. *core.Manager satisfies
// it in every mode, and multilog's per-shard 2PC overlay wraps one.
type LogManager interface {
	BeginHinted(tid logrec.TxID, expected sim.Time)
	WriteData(tid logrec.TxID, oid logrec.OID, size int) logrec.LSN
	Commit(tid logrec.TxID, onDurable func())
	SetKillHandler(fn func(logrec.TxID))
}

// Stats summarizes a generator run.
type Stats struct {
	Started   uint64
	Committed uint64 // durably committed (acknowledged)
	Killed    uint64
	PerType   map[string]uint64 // started per type
	// EndToEnd is t4-t0: lifetime plus group-commit delay.
	EndToEndMean float64
	EndToEndP99  float64
}

// txRun is one transaction in progress. Runs are recycled: a finished run
// goes back to the generator's free list with its writes slice emptied and
// its three event handlers — closures over the run, built once — intact, so
// a transaction in steady state allocates nothing here.
type txRun struct {
	tid          logrec.TxID
	typ          *TxType
	killed       bool
	commitIssued bool // COMMIT record handed to the log manager
	durable      bool // group-commit acknowledgement received (t4)
	began        sim.Time
	issued       int // data-record events fired so far
	writes       []write

	onRecord  func() // g.writeRecord(run): scheduled once per data record
	onCommit  func() // g.commit(run): scheduled at the transaction's lifetime
	onDurable func() // g.acked(run): handed to the log manager with the COMMIT
}

// write is one data record a transaction logged.
type write struct {
	oid logrec.OID
	lsn logrec.LSN
}

// fate is what the generator remembers of a transaction once its run has
// been recycled: one byte, enough for TxInfo.
type fate uint8

const (
	fateCommitIssued fate = 1 << iota
	fateAcked
	fateKilled
)

func (r *txRun) fate() fate {
	var f fate
	if r.commitIssued {
		f |= fateCommitIssued
	}
	if r.durable {
		f |= fateAcked
	}
	if r.killed {
		f |= fateKilled
	}
	return f
}

// Generator initiates transactions against a LogManager on a simulation
// engine.
type Generator struct {
	eng sim.Source
	lm  LogManager
	cfg Config

	nextTid logrec.TxID
	txs     map[logrec.TxID]*txRun // transactions in progress
	fates   []fate                 // finished ones, by initiation order
	idle    []*txRun               // recycled runs, reused LIFO
	held    map[logrec.OID]logrec.TxID
	oracle  map[logrec.OID]logrec.LSN

	started, committed, killed metrics.Counter
	perType                    map[string]uint64
	endToEnd                   metrics.Histogram

	onArrival func() // g.arrival, bound once: a method value allocates per use

	// bursty-arrival modulation state
	burstOn    bool
	burstUntil sim.Time
}

// New builds a generator. It registers itself as the manager's kill
// handler. eng is the run's clock-and-random source: a *sim.Engine in
// simulation mode, a realtime loop in real mode — the generator makes
// exactly the same scheduling and Rand calls either way.
func New(eng sim.Source, lm LogManager, cfg Config) (*Generator, error) {
	if err := cfg.Mix.Validate(); err != nil {
		return nil, err
	}
	if cfg.ArrivalRate <= 0 || cfg.Runtime <= 0 || cfg.NumObjects == 0 {
		return nil, fmt.Errorf("workload: rate, runtime and object count must be positive")
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = DefaultEpsilon
	}
	for _, t := range cfg.Mix {
		if t.Lifetime <= cfg.Epsilon {
			return nil, fmt.Errorf("workload: type %s lifetime %v not greater than epsilon %v", t.Name, t.Lifetime, cfg.Epsilon)
		}
	}
	g := &Generator{
		eng:     eng,
		lm:      lm,
		cfg:     cfg,
		txs:     make(map[logrec.TxID]*txRun),
		held:    make(map[logrec.OID]logrec.TxID),
		oracle:  make(map[logrec.OID]logrec.LSN),
		perType: make(map[string]uint64),
	}
	g.onArrival = g.arrival
	lm.SetKillHandler(g.onKill)
	return g, nil
}

// Start schedules the first arrival; transactions then initiate at regular
// intervals for the configured runtime.
func (g *Generator) Start() {
	g.eng.At(0, g.onArrival)
}

func (g *Generator) interval() sim.Time {
	return sim.Time(float64(sim.Second) / g.cfg.ArrivalRate)
}

func (g *Generator) arrival() {
	now := g.eng.Now()
	if now >= g.cfg.Runtime {
		return
	}
	g.initiate()
	g.eng.At(now+g.nextGap(), g.onArrival)
}

// pickType selects a transaction type according to the pdf.
func (g *Generator) pickType() *TxType {
	r := g.eng.Rand().Float64()
	acc := 0.0
	for i := range g.cfg.Mix {
		acc += g.cfg.Mix[i].Prob
		if r < acc {
			return &g.cfg.Mix[i]
		}
	}
	return &g.cfg.Mix[len(g.cfg.Mix)-1]
}

func (g *Generator) initiate() {
	typ := g.pickType()
	g.nextTid++
	tid := logrec.TxID(g.cfg.TidBase) + g.nextTid
	run := g.newRun()
	run.tid, run.typ, run.began = tid, typ, g.eng.Now()
	g.txs[tid] = run
	g.fates = append(g.fates, 0)
	g.started.Inc()
	g.perType[typ.Name]++

	hint := sim.Time(0)
	if g.cfg.Hints {
		hint = typ.Lifetime
	}
	g.lm.BeginHinted(tid, hint)

	// Schedule the N data records: record j at t0 + j*(T-eps)/N, so the
	// last lands at t0 + T - eps (Figure 3). They fire in order, so the run
	// counts them instead of each event carrying its j.
	step := (typ.Lifetime - g.cfg.Epsilon) / sim.Time(typ.NumRecords)
	for j := 1; j <= typ.NumRecords; j++ {
		g.eng.After(sim.Time(j)*step, run.onRecord)
	}
	g.eng.After(typ.Lifetime, run.onCommit)
}

// newRun takes a run off the free list, or builds one with its handlers.
func (g *Generator) newRun() *txRun {
	if n := len(g.idle); n > 0 {
		run := g.idle[n-1]
		g.idle = g.idle[:n-1]
		return run
	}
	run := &txRun{}
	run.onRecord = func() { g.writeRecord(run) }
	run.onCommit = func() { g.commit(run) }
	run.onDurable = func() { g.acked(run) }
	return run
}

// finish forgets a transaction nothing will happen to any more, keeping
// only its fate. recycle says no event or callback still holds the run.
func (g *Generator) finish(run *txRun, recycle bool) {
	g.fates[uint64(run.tid)-g.cfg.TidBase-1] = run.fate()
	delete(g.txs, run.tid)
	if recycle {
		*run = txRun{writes: run.writes[:0], onRecord: run.onRecord, onCommit: run.onCommit, onDurable: run.onDurable}
		g.idle = append(g.idle, run)
	}
}

// drawOID picks an object not currently updated by any active
// transaction.
func (g *Generator) drawOID() logrec.OID {
	for {
		oid := logrec.OID(g.eng.Rand().Uint64N(g.cfg.NumObjects))
		if _, taken := g.held[oid]; !taken {
			return oid
		}
	}
}

func (g *Generator) writeRecord(run *txRun) {
	run.issued++
	if run.killed {
		return
	}
	oid := g.drawOID()
	g.held[oid] = run.tid
	lsn := g.lm.WriteData(run.tid, oid, run.typ.RecordSize)
	if run.killed {
		// The write itself triggered space pressure that killed this very
		// transaction; the record is already garbage and the oid is free.
		delete(g.held, oid)
		return
	}
	run.writes = append(run.writes, write{oid, lsn})
}

func (g *Generator) commit(run *txRun) {
	if run.killed {
		// The last of a killed transaction's events: nothing holds the run.
		g.finish(run, true)
		return
	}
	run.commitIssued = true
	g.lm.Commit(run.tid, run.onDurable)
}

// acked is the log manager's group-commit acknowledgement (t4): the
// transaction is durably committed.
func (g *Generator) acked(run *txRun) {
	run.durable = true
	g.committed.Inc()
	g.endToEnd.Observe((g.eng.Now() - run.began).Seconds())
	for _, w := range run.writes {
		if g.oracle[w.oid] < w.lsn {
			g.oracle[w.oid] = w.lsn
		}
		if g.held[w.oid] == run.tid {
			delete(g.held, w.oid)
		}
	}
	g.finish(run, true)
}

func (g *Generator) onKill(tid logrec.TxID) {
	run, ok := g.txs[tid]
	if !ok {
		return
	}
	run.killed = true
	g.killed.Inc()
	for _, w := range run.writes {
		if g.held[w.oid] == tid {
			delete(g.held, w.oid)
		}
	}
	if run.commitIssued {
		// No event of its own is left to finish it. The log manager still
		// holds the run's acknowledgement callback, so the run is dropped
		// rather than recycled.
		g.finish(run, false)
	}
}

// Committed reports durably committed transactions so far. Unlike Stats it
// is O(1): samplers that want one counter per tick must not pay for a
// per-type map copy and three latency sorts.
func (g *Generator) Committed() uint64 { return g.committed.Count() }

// Killed reports transactions killed for log space so far, in O(1).
func (g *Generator) Killed() uint64 { return g.killed.Count() }

// Stats snapshots the generator's counters.
func (g *Generator) Stats() Stats {
	per := make(map[string]uint64, len(g.perType))
	for k, v := range g.perType {
		per[k] = v
	}
	return Stats{
		Started:      g.started.Count(),
		Committed:    g.committed.Count(),
		Killed:       g.killed.Count(),
		PerType:      per,
		EndToEndMean: g.endToEnd.Mean(),
		EndToEndP99:  g.endToEnd.Quantile(0.99),
	}
}

// MergeLatencies merges the generator's end-to-end latency samples into
// all. Quantiles of separate generators cannot be combined after the fact,
// so aggregators spanning several generators — the PDES binding runs one
// per logical process — merge the raw samples and compute global
// statistics once.
func (g *Generator) MergeLatencies(all *metrics.Histogram) {
	all.Merge(&g.endToEnd)
}

// Oracle returns the latest durably committed LSN per object — ground
// truth for recovery verification. The map is live; callers must not
// mutate it.
func (g *Generator) Oracle() map[logrec.OID]logrec.LSN { return g.oracle }

// ActiveHeld reports how many objects are currently locked by active
// transactions (used by tests of the paper's unique-oid draw).
func (g *Generator) ActiveHeld() int { return len(g.held) }

// TxInfo describes one transaction's progress at the time of the call —
// crash-campaign harnesses use it to decide whether a transaction that
// recovery reports as a winner was legitimately commit-pending at the
// crash. Writes lists what the transaction has logged so far and is filled
// in only while the transaction is in progress — not yet acknowledged or
// killed-and-finished — which is the only time a harness needs it.
type TxInfo struct {
	Known        bool
	CommitIssued bool // COMMIT record handed to the log manager
	Acked        bool // group-commit acknowledgement received (t4)
	Killed       bool
	Writes       map[logrec.OID]logrec.LSN
}

// TxInfo reports the progress of one transaction (zero value if unknown).
func (g *Generator) TxInfo(tid logrec.TxID) TxInfo {
	seq := uint64(tid) - g.cfg.TidBase
	if seq == 0 || seq > uint64(len(g.fates)) {
		return TxInfo{}
	}
	f := g.fates[seq-1]
	var writes map[logrec.OID]logrec.LSN
	if run, ok := g.txs[tid]; ok {
		f = run.fate()
		writes = make(map[logrec.OID]logrec.LSN, len(run.writes))
		for _, w := range run.writes {
			writes[w.oid] = w.lsn
		}
	}
	return TxInfo{
		Known:        true,
		CommitIssued: f&fateCommitIssued != 0,
		Acked:        f&fateAcked != 0,
		Killed:       f&fateKilled != 0,
		Writes:       writes,
	}
}
