// Package realtime is the wall-clock twin of the simulation engine: a
// single-goroutine event loop whose clock is elapsed real time. It
// satisfies sim.Source, so the logging-manager core, the flush-array model
// and the workload generator — all written against that interface — run on
// real hardware unchanged, with their simulated-time constants (the 1 ms
// commit epsilon, the 25 ms flush transfer) paid in actual wall time.
//
// The package is deliberately OUTSIDE the determinism contract: it reads
// the wall clock and its runs are not reproducible in their timing (the
// ellint ruleset exempts it from the wallclock and rngsource rules by
// scope). What stays deterministic is the input side — the workload's
// random stream is seeded from the run configuration — so a real run
// replays the same transaction schedule even though durability timings
// differ run to run.
package realtime

import (
	"math/rand/v2"
	"sync"
	"time"

	"ellog/internal/sim"
)

// Loop is a wall-clock event loop. All scheduling (At/After) and all
// handler execution happen on the goroutine that calls Run — the same
// single-threaded discipline as sim.Engine. Other goroutines (the device's
// fsync worker) hand completions back with Post; the loop wakes and runs
// them in arrival order.
type Loop struct {
	start time.Time

	// eng is the timer queue and the random stream: a sim.Engine that Run
	// steps against the wall clock. Its own Now, the timestamp of the event
	// fired last, is never exposed. Loop-goroutine only.
	eng *sim.Engine

	// Cross-goroutine mailbox; drainPosted swaps posted and spare.
	mu            sync.Mutex
	posted, spare []func() // spare: drained last pass, loop-goroutine only
	wake          chan struct{}
}

// New returns a loop whose clock starts at 0 now and whose random stream is
// seeded like the simulation harness seeds its engine, so sim and real runs
// of the same configuration draw identical workload schedules.
func New(seed uint64) *Loop {
	return &Loop{
		start: time.Now(),
		eng:   sim.NewEngine(seed, seed^0x9e3779b97f4a7c15),
		wake:  make(chan struct{}, 1),
	}
}

// Now returns the wall-clock time elapsed since the loop was created, as a
// sim.Time (microseconds) — the real backend's reading of the paper's
// simulated clock.
func (l *Loop) Now() sim.Time {
	return sim.Time(time.Since(l.start) / time.Microsecond)
}

// Rand returns the loop's seeded random stream.
func (l *Loop) Rand() *rand.Rand { return l.eng.Rand() }

// Fired reports how many events have been dispatched so far.
func (l *Loop) Fired() uint64 { return l.eng.Fired() }

// Pending reports how many timer events are currently scheduled.
func (l *Loop) Pending() int { return l.eng.Pending() }

// At schedules fn to run at absolute loop time t. Unlike the simulation
// engine, scheduling "in the past" is legal: real time advances between the
// caller reading Now and the loop acting, so a hard panic would turn an
// innocent scheduling race with the wall clock into a crash. A time before
// the timestamp of the event fired last is moved up to it: fn queues behind
// what is already pending for that instant and ahead of everything later. A
// handler scheduling at or after its own timestamp is never moved.
func (l *Loop) At(t sim.Time, fn sim.Handler) sim.EventID {
	if last := l.eng.Now(); t < last {
		t = last
	}
	return l.eng.At(t, fn)
}

// After schedules fn to run d after the current time.
func (l *Loop) After(d sim.Time, fn sim.Handler) sim.EventID {
	if d < 0 {
		d = 0
	}
	return l.At(l.Now()+d, fn)
}

// Post hands a callback to the loop, from another goroutine or from a
// handler on the loop itself; it runs on the loop goroutine ahead of the
// next timer event, however many of those are already due. This is how
// the real device's fsync worker delivers write completions without the
// manager ever seeing a second thread, and how the device ships what one
// handler wrote as soon as that handler returns: a batch must not wait
// behind a backlog of due timers that have nothing to add to it.
func (l *Loop) Post(fn func()) {
	l.mu.Lock()
	l.posted = append(l.posted, fn)
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Run dispatches posted callbacks and due timer events — the mailbox is
// emptied before each timer event — until the wall clock passes the until
// time. Timer events scheduled beyond the horizon stay pending, exactly like
// sim.Engine.Run; repeated calls with a later horizon continue the run. Run
// returns with the loop idle at or past until.
func (l *Loop) Run(until sim.Time) {
	for {
		l.drainPosted()
		now := l.Now()
		for at, ok := l.eng.NextAt(); ok && at <= now; at, ok = l.eng.NextAt() {
			l.eng.Step()
			l.drainPosted()
		}
		now = l.Now()
		if now >= until {
			return
		}
		next := until
		if at, ok := l.eng.NextAt(); ok && at < next {
			next = at
		}
		timer := time.NewTimer(time.Duration(next-now) * time.Microsecond)
		select {
		case <-l.wake:
			timer.Stop()
		case <-timer.C:
		}
	}
}

func (l *Loop) drainPosted() {
	l.mu.Lock()
	posts := l.posted
	l.posted, l.spare = l.spare, nil
	l.mu.Unlock()
	for _, fn := range posts {
		fn()
	}
	clear(posts) // the callbacks are done; keep none of them alive
	l.spare = posts[:0]
}

var _ sim.Source = (*Loop)(nil)
