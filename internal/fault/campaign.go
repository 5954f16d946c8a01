package fault

import (
	"fmt"
	"strings"

	"ellog/internal/harness"
	"ellog/internal/logrec"
	"ellog/internal/recovery"
	"ellog/internal/runner"
	"ellog/internal/sim"
	"ellog/internal/statedb"
	"ellog/internal/trace"
)

// PointKind distinguishes the two crash models the campaign sweeps.
type PointKind int

const (
	// PointClean crashes immediately after the K-th block-write completion
	// (and its synchronous effects: acknowledgements, flush enqueues). The
	// crash image holds only whole, checksum-valid blocks.
	PointClean PointKind = iota + 1
	// PointTorn crashes with the K-th issued block write still in flight
	// and tears it: only the first Frac of its bytes reach the image, the
	// rest keeps the block's previous contents (blockdev.TearOldestInFlight).
	PointTorn
)

func (k PointKind) String() string {
	switch k {
	case PointClean:
		return "clean"
	case PointTorn:
		return "torn"
	default:
		return fmt.Sprintf("PointKind(%d)", int(k))
	}
}

// Point is one crash point in a campaign sweep.
type Point struct {
	Index int
	Kind  PointKind
	K     int     // ordinal of the triggering event (1-based)
	Frac  float64 // torn prefix fraction (PointTorn only)
}

func (p Point) String() string {
	if p.Kind == PointTorn {
		return fmt.Sprintf("torn seal #%d frac %.2f", p.K, p.Frac)
	}
	return fmt.Sprintf("clean durable #%d", p.K)
}

// Failure describes one crash point where the recovery property did not
// hold.
type Failure struct {
	Point  Point
	Reason string
}

// CampaignConfig parameterizes a crash-point sweep. The base configuration
// must be fault-free (the campaign injects crashes, not I/O faults — the
// strict oracle property only holds when every issued write either
// completes untouched or is the one torn at the crash) and must not
// recirculate: recirculation rewrites a pending buffer into its own origin
// slot, where a torn write can destroy the only durable copies of records
// the crash image is supposed to retain.
type CampaignConfig struct {
	Base harness.Config
	// TornFracs are the mid-write tear boundaries swept per sealed block;
	// nil selects {0.3, 0.7}.
	TornFracs []float64
	// MaxPoints bounds the sweep: when the full point list is larger, every
	// ceil(total/MaxPoints)-th point is taken so the sample still spans the
	// whole run. 0 means sweep everything.
	MaxPoints int
	// Horizon is how far past the workload runtime each run may execute
	// before it is considered drained; 0 selects Runtime + 30 s.
	Horizon sim.Time
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.TornFracs == nil {
		c.TornFracs = []float64{0.3, 0.7}
	}
	if c.Horizon == 0 {
		c.Horizon = c.Base.Workload.Runtime + 30*sim.Second
	}
	return c
}

// Validate rejects configurations the campaign's oracle cannot reason
// about.
func (c CampaignConfig) Validate() error {
	if c.Base.LM.Recirculate {
		return fmt.Errorf("fault: campaign base must not recirculate (in-place pending rewrites break the torn-write guarantee)")
	}
	for _, f := range c.TornFracs {
		if f < 0 || f > 1 {
			return fmt.Errorf("fault: torn fraction %v outside [0, 1]", f)
		}
	}
	if c.MaxPoints < 0 {
		return fmt.Errorf("fault: negative MaxPoints")
	}
	return nil
}

// CampaignResult summarizes a sweep.
type CampaignResult struct {
	Seals    int // block writes issued by the reference run
	Durables int // block writes completed by the reference run
	Points   int // crash points actually swept (after sampling)
	Clean    int
	Torn     int

	TornDetected int // points where recovery flagged at least one torn block
	Salvaged     int // records salvaged from torn blocks across all points

	Failures []Failure
}

// Passed reports whether every swept point upheld the recovery property.
func (r CampaignResult) Passed() bool { return len(r.Failures) == 0 }

// String renders a one-screen summary.
func (r CampaignResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign: %d points (%d clean, %d torn) over a run of %d seals / %d durables\n",
		r.Points, r.Clean, r.Torn, r.Seals, r.Durables)
	fmt.Fprintf(&b, "  torn blocks detected at %d points, %d records salvaged\n",
		r.TornDetected, r.Salvaged)
	if r.Passed() {
		b.WriteString("  PASS: recovered state matched the committed-transaction oracle at every point\n")
	} else {
		fmt.Fprintf(&b, "  FAIL: %d points violated the recovery property\n", len(r.Failures))
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

// RunCampaign sweeps crash points over the base configuration: a reference
// run counts the block writes issued and completed, then every sampled
// point re-runs the identical simulation from scratch, stops it at the
// point's trigger, optionally tears the in-flight write, runs single-pass
// recovery on the crash image and verifies the recovered database against
// the workload's oracle.
//
// The verification contract per point:
//
//   - Every acknowledged commit's updates are recovered exactly (at their
//     latest acknowledged LSN or newer from a legitimate winner).
//   - At a clean point, recovery's winners are exactly the acknowledged
//     transactions — nothing resurrects, nothing is lost.
//   - At a torn point, a transaction may additionally win if and only if
//     its COMMIT was issued and survived in the torn block's salvaged
//     prefix; its writes then count as committed (records precede their
//     COMMIT in the log, so a salvaged COMMIT implies recoverable data).
//     A transaction whose COMMIT fell in the lost suffix was never
//     acknowledged and must recover as a loser.
//
// Points are independent simulations, so a pool parallelizes them; results
// are assembled in point order, making parallel and sequential campaigns
// byte-identical.
func RunCampaign(cfg CampaignConfig, pool *runner.Pool) (CampaignResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return CampaignResult{}, err
	}
	var res CampaignResult

	// Reference run: count seals (writes issued) and durables (writes
	// completed). Every point run replays the same seed, so ordinal K
	// identifies the same block write in every replay.
	ref, err := harness.Build(cfg.Base)
	if err != nil {
		return res, err
	}
	ref.Setup.LM.SetTracer(trace.Func(func(e trace.Event) {
		switch e.Kind {
		case trace.EvSeal:
			res.Seals++
		case trace.EvDurable:
			res.Durables++
		}
	}))
	ref.Setup.Eng.Run(cfg.Horizon)

	points := make([]Point, 0, res.Durables+res.Seals*len(cfg.TornFracs))
	for k := 1; k <= res.Durables; k++ {
		points = append(points, Point{Kind: PointClean, K: k})
	}
	for k := 1; k <= res.Seals; k++ {
		for _, f := range cfg.TornFracs {
			points = append(points, Point{Kind: PointTorn, K: k, Frac: f})
		}
	}
	if cfg.MaxPoints > 0 && len(points) > cfg.MaxPoints {
		stride := (len(points) + cfg.MaxPoints - 1) / cfg.MaxPoints
		sampled := points[:0]
		for i := 0; i < len(points); i += stride {
			sampled = append(sampled, points[i])
		}
		points = sampled
	}
	for i := range points {
		points[i].Index = i
	}

	type outcome struct {
		torn     int
		salvaged int
		reason   string // empty: property held
	}
	outcomes := make([]outcome, len(points))
	err = pool.ForEach(len(points), func(i int) error {
		return pool.Do(func() error {
			rres, verr, berr := runPoint(cfg, points[i], nil)
			if berr != nil {
				return berr
			}
			outcomes[i] = outcome{torn: rres.TornBlocks, salvaged: rres.SalvagedRecs}
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
		if points[i].Kind == PointTorn {
			res.Torn++
		} else {
			res.Clean++
		}
		if o.torn > 0 {
			res.TornDetected++
		}
		res.Salvaged += o.salvaged
		if o.reason != "" {
			res.Failures = append(res.Failures, Failure{Point: points[i], Reason: o.reason})
		}
	}
	return res, nil
}

// TracePoint replays one crash point exactly as the campaign would,
// streaming every trace event up to (and including) the crash trigger to
// sink. A campaign run keeps no traces — points are too numerous — so
// this is the diagnosis hook: rerun the one failing point and dump its
// full event stream for eltrace. The returned triple matches runPoint.
func TracePoint(cfg CampaignConfig, pt Point, sink trace.Sink) (recovery.Result, error, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return recovery.Result{}, nil, err
	}
	return runPoint(cfg, pt, sink)
}

// runPoint replays the base run, crashes it at the point, recovers, and
// verifies, forwarding events to sink when one is given. The returned
// error triple is (recovery result, property violation, infrastructure
// error).
func runPoint(cfg CampaignConfig, pt Point, sink trace.Sink) (recovery.Result, error, error) {
	live, err := harness.Build(cfg.Base)
	if err != nil {
		return recovery.Result{}, nil, err
	}
	trigger := trace.EvDurable
	if pt.Kind == PointTorn {
		trigger = trace.EvSeal
	}
	n := 0
	live.Setup.LM.SetTracer(trace.Func(func(e trace.Event) {
		if sink != nil {
			sink.Emit(e)
		}
		if e.Kind == trigger {
			n++
			if n == pt.K {
				live.Setup.Eng.Stop()
			}
		}
	}))
	live.Setup.Eng.Run(cfg.Horizon)
	if n < pt.K {
		return recovery.Result{}, nil, fmt.Errorf("fault: %v never reached (saw %d of %d events; replay diverged?)", pt, n, pt.K)
	}
	// The crash falls between two events, where the manager's bookkeeping
	// must be whole — including that nothing it still uses was recycled.
	if err := live.Setup.LM.CheckInvariants(); err != nil {
		return recovery.Result{}, fmt.Errorf("manager invariant violated at the crash: %v", err), nil
	}
	if pt.Kind == PointTorn {
		if _, ok := live.Setup.Dev.TearOldestInFlight(pt.Frac); !ok {
			return recovery.Result{}, nil, fmt.Errorf("fault: %v: no write in flight to tear", pt)
		}
	}
	recovered, rres, rerr := recovery.Recover(live.Setup.Dev, live.Setup.DB, 0)
	if rerr != nil {
		return rres, fmt.Errorf("recovery failed: %v", rerr), nil
	}
	return rres, verifyPoint(live, pt, rres, recovered), nil
}

// verifyPoint checks the recovered database against the workload oracle,
// applying the torn-point expected-loss rule for commit-pending winners.
func verifyPoint(live *harness.Live, pt Point, rres recovery.Result, recovered *statedb.DB) error {
	gen := live.Gen
	expected := make(map[logrec.OID]logrec.LSN, len(gen.Oracle()))
	for oid, lsn := range gen.Oracle() {
		expected[oid] = lsn
	}
	for _, tx := range rres.WinnerTxs {
		info := gen.TxInfo(tx)
		if info.Acked {
			continue
		}
		if pt.Kind == PointClean {
			return fmt.Errorf("clean crash: tx %d recovered as a winner without acknowledgement", tx)
		}
		if !info.Known || !info.CommitIssued || info.Killed {
			return fmt.Errorf("torn crash: tx %d recovered as a winner but never issued a COMMIT", tx)
		}
		// Commit-pending at the crash and its COMMIT survived in the torn
		// block's salvaged prefix: all its data records precede the COMMIT
		// in the log, so they are recoverable and the transaction
		// legitimately wins. Fold its writes into the expectation.
		for oid, lsn := range info.Writes {
			if expected[oid] < lsn {
				expected[oid] = lsn
			}
		}
	}
	return recovery.VerifyOracle(recovered, expected)
}
