package multilog

import (
	"fmt"
	"slices"
	"strings"

	"ellog/internal/logrec"
	"ellog/internal/recovery"
	"ellog/internal/runner"
	"ellog/internal/sim"
	"ellog/internal/trace"
)

// CrossPoint is one crash point in a cross-shard campaign: stop the whole
// simulated machine at instant At — one at which some shard's block write
// became durable in the reference run — then crash either everything or a
// single shard.
type CrossPoint struct {
	Index int
	At    sim.Time
	// Shard -1 crashes the whole machine (every shard recovers from its
	// image); otherwise only this shard crashes and recovers against the
	// other shards' intact logs.
	Shard int
}

func (p CrossPoint) String() string {
	if p.Shard < 0 {
		return fmt.Sprintf("whole-machine crash at %v", p.At)
	}
	return fmt.Sprintf("shard %d crash at %v", p.Shard, p.At)
}

// CrossFailure describes one crash point where cross-shard atomicity or
// the recovery property did not hold.
type CrossFailure struct {
	Point  CrossPoint
	Reason string
}

// CrossCampaignConfig parameterizes a cross-shard crash sweep.
type CrossCampaignConfig struct {
	// Base is the sharded run to crash. Its Workers is ignored: every run
	// of the sweep is the 1-worker sequential reference execution, so the
	// points themselves fan out across the pool.
	Base PDESConfig
	// Horizon is how far each run may execute before it is considered
	// drained; 0 selects Runtime + 30 s.
	Horizon sim.Time
	// MaxPoints bounds the sweep by stride-sampling; 0 sweeps everything.
	MaxPoints int
}

func (c CrossCampaignConfig) withDefaults() CrossCampaignConfig {
	if c.Horizon == 0 {
		c.Horizon = c.Base.Workload.Runtime + 30*sim.Second
	}
	c.Base.Workers = 1
	return c
}

// CrossCampaignResult summarizes a sweep.
type CrossCampaignResult struct {
	Instants     int // distinct instants with a durable block write in the reference run, any shard
	Points       int // crash points actually swept (after sampling)
	WholeMachine int
	SingleShard  int

	// 2PC resolution work across all points' recoveries: how often a
	// crash landed inside the prepare window and how the in-doubt
	// branches were settled.
	InDoubt        int
	ResolvedCommit int
	ResolvedAbort  int

	// Reference-run workload shape, to confirm the sweep exercised 2PC.
	CrossStarted   uint64
	CrossCommitted uint64

	Failures []CrossFailure
}

// Passed reports whether every swept point upheld atomicity.
func (r CrossCampaignResult) Passed() bool { return len(r.Failures) == 0 }

// String renders a one-screen summary.
func (r CrossCampaignResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cross-shard campaign: %d points (%d whole-machine, %d single-shard) over a run of %d durable instants\n",
		r.Points, r.WholeMachine, r.SingleShard, r.Instants)
	fmt.Fprintf(&b, "  workload: %d cross-shard transactions started, %d committed\n",
		r.CrossStarted, r.CrossCommitted)
	fmt.Fprintf(&b, "  in-doubt branches: %d total, %d resolved commit, %d presumed abort\n",
		r.InDoubt, r.ResolvedCommit, r.ResolvedAbort)
	if r.Passed() {
		b.WriteString("  PASS: every point recovered to exactly the acknowledged commits on every shard\n")
	} else {
		fmt.Fprintf(&b, "  FAIL: %d points violated atomicity\n", len(r.Failures))
		for i, f := range r.Failures {
			if i == 10 {
				fmt.Fprintf(&b, "    ... and %d more\n", len(r.Failures)-10)
				break
			}
			fmt.Fprintf(&b, "    %v: %s\n", f.Point, f.Reason)
		}
	}
	return b.String()
}

// RunCrossCampaign sweeps crash points over a sharded run. A reference run
// collects every instant at which some shard's block write became
// durable; then every sampled point replays the identical simulation to
// that instant — PE.Run(At) fires every event at or before At on every
// LP — recovers the whole machine or one shard, and verifies against the
// joined oracle.
//
// The stop is a consistent cut: a message sent at or before At lands no
// earlier than At plus the lookahead, so no LP has seen an effect whose
// cause lies beyond the cut. It is also clean: the durable write's
// synchronous effects, commit and decision acknowledgements included,
// fire at At. Acknowledged and decision-durable therefore coincide exactly
// and the oracle check is strict in both directions — each acknowledged
// transaction's updates are recovered on every shard it touched, and no
// unacknowledged transaction's updates survive anywhere: a cross-shard
// transaction never recovers committed on one shard and aborted on
// another.
//
// Points are independent simulations; a pool parallelizes them and
// results are assembled in point order, keeping parallel and sequential
// campaigns byte-identical.
func RunCrossCampaign(cfg CrossCampaignConfig, pool *runner.Pool) (CrossCampaignResult, error) {
	cfg = cfg.withDefaults()
	var res CrossCampaignResult

	ref, err := BuildPDES(cfg.Base)
	if err != nil {
		return res, err
	}
	var instants []sim.Time
	tr := trace.Func(func(e trace.Event) {
		if e.Kind == trace.EvDurable {
			instants = append(instants, e.At)
		}
	})
	for _, s := range ref.Shards {
		s.Setup.LM.SetTracer(tr)
	}
	ref.PE.Run(cfg.Horizon)
	slices.Sort(instants)
	instants = slices.Compact(instants)
	res.Instants = len(instants)
	st := ref.Stats()
	res.CrossStarted = st.CrossStarted
	res.CrossCommitted = st.CrossCommitted

	// Two points per instant: the whole machine, and one shard (rotating
	// through them so every shard crashes at many different instants).
	// Sampling strides over instants, so both legs survive it.
	if cfg.MaxPoints > 0 && 2*len(instants) > cfg.MaxPoints {
		stride := (2*len(instants) + cfg.MaxPoints - 1) / cfg.MaxPoints
		sampled := instants[:0]
		for i := 0; i < len(instants); i += stride {
			sampled = append(sampled, instants[i])
		}
		instants = sampled
	}
	points := make([]CrossPoint, 0, 2*len(instants))
	for k, at := range instants {
		points = append(points,
			CrossPoint{Index: 2 * k, At: at, Shard: -1},
			CrossPoint{Index: 2*k + 1, At: at, Shard: k % cfg.Base.Shards})
	}

	type outcome struct {
		inDoubt, resolvedCommit, resolvedAbort int
		reason                                 string // empty: property held
	}
	outcomes := make([]outcome, len(points))
	err = pool.ForEach(len(points), func(i int) error {
		return pool.Do(func() error {
			report, verr, berr := runCrossPoint(cfg, points[i])
			if berr != nil {
				return berr
			}
			outcomes[i] = outcome{
				inDoubt:        report.InDoubt,
				resolvedCommit: report.ResolvedCommit,
				resolvedAbort:  report.ResolvedAbort,
			}
			if verr != nil {
				outcomes[i].reason = verr.Error()
			}
			return nil
		})
	})
	if err != nil {
		return res, err
	}

	for i, o := range outcomes {
		res.Points++
		if points[i].Shard < 0 {
			res.WholeMachine++
		} else {
			res.SingleShard++
		}
		res.InDoubt += o.inDoubt
		res.ResolvedCommit += o.resolvedCommit
		res.ResolvedAbort += o.resolvedAbort
		if o.reason != "" {
			res.Failures = append(res.Failures, CrossFailure{Point: points[i], Reason: o.reason})
		}
	}
	return res, nil
}

// runCrossPoint replays the base run to the point's instant, crashes,
// recovers and verifies. The returned error pair is (property violation,
// infrastructure error).
func runCrossPoint(cfg CrossCampaignConfig, pt CrossPoint) (RecoveryReport, error, error) {
	live, err := BuildPDES(cfg.Base)
	if err != nil {
		return RecoveryReport{}, nil, err
	}
	live.PE.Run(pt.At)

	oracle := live.Oracle()
	parts := live.Setups()
	if pt.Shard < 0 {
		merged, report, rerr := RecoverAll(parts, 0)
		if rerr != nil {
			return report, fmt.Errorf("recovery failed: %v", rerr), nil
		}
		// Clean crash: a winner on any shard must have been acknowledged —
		// in particular, a participant branch resolved as committed without
		// the client ever hearing the decision would show up here.
		for i, per := range report.Per {
			for _, tx := range per.WinnerTxs {
				if !live.Acked(tx) {
					return report, fmt.Errorf("shard %d: tx %d recovered as a winner without acknowledgement", i, tx), nil
				}
			}
		}
		return report, recovery.VerifyOracle(merged, oracle), nil
	}
	// Single-shard crash: the shard's recovered state must match the
	// oracle restricted to its object range — its slice of every
	// acknowledged cross-shard transaction included, even when the
	// coordinator was elsewhere.
	shardDB, report, rerr := RecoverShard(parts, pt.Shard, 0)
	if rerr != nil {
		return report, fmt.Errorf("recovery failed: %v", rerr), nil
	}
	width := cfg.Base.Flush.NumObjects
	restricted := make(map[logrec.OID]logrec.LSN)
	for oid, lsn := range oracle {
		if uint64(oid)/width == uint64(pt.Shard) {
			restricted[oid] = lsn
		}
	}
	return report, recovery.VerifyOracle(shardDB, restricted), nil
}
