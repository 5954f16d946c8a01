package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestParallelEngineConstruction covers the constructor's contract checks.
func TestParallelEngineConstruction(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero LPs", func() { NewParallelEngine(1, 2, 0, Millisecond) })
	mustPanic("zero lookahead", func() { NewParallelEngine(1, 2, 2, 0) })
	mustPanic("negative lookahead", func() { NewParallelEngine(1, 2, 2, -Millisecond) })

	pe := NewParallelEngine(1, 2, 4, Millisecond)
	if pe.NumLPs() != 4 {
		t.Fatalf("LPs = %d, want 4", pe.NumLPs())
	}
}

// TestSendContract covers the conservative guarantee's enforcement: a
// cross-LP send below lookahead, or to a nonexistent LP, is a model bug.
func TestSendContract(t *testing.T) {
	pe := NewParallelEngine(1, 2, 2, 10*Millisecond)
	lp := pe.LP(0)
	for name, fn := range map[string]func(){
		"below lookahead": func() { lp.Send(1, 9*Millisecond, func() {}) },
		"negative dst":    func() { lp.Send(-1, 10*Millisecond, func() {}) },
		"dst overflow":    func() { lp.Send(2, 10*Millisecond, func() {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
	// Exactly lookahead is legal — the boundary case.
	lp.Send(1, 10*Millisecond, func() {})
}

// TestSingleLPReducesToSequentialEngine is the reduction theorem at the
// engine level: a 1-LP parallel engine is bit-for-bit the plain Engine
// with the same seeds — same RNG stream, same dispatch order, same clock
// positions.
func TestSingleLPReducesToSequentialEngine(t *testing.T) {
	type record struct {
		At   Time
		Tag  int
		Rand uint64
	}
	run := func(schedule func(at Time, fn Handler), after func(d Time, fn Handler), rnd func() uint64, runTo func(Time), now func() Time) []record {
		var log []record
		for i := 0; i < 20; i++ {
			i := i
			at := Time(i * 700)
			schedule(at, func() {
				log = append(log, record{At: now(), Tag: i, Rand: rnd()})
				if i%3 == 0 {
					after(Time(100+i), func() {
						log = append(log, record{At: now(), Tag: 1000 + i, Rand: rnd()})
					})
				}
			})
		}
		runTo(20 * Millisecond)
		return log
	}

	seq := NewEngine(7, 11)
	seqLog := run(func(at Time, fn Handler) { seq.At(at, fn) },
		func(d Time, fn Handler) { seq.After(d, fn) },
		seq.Rand().Uint64, seq.Run, seq.Now)

	pe := NewParallelEngine(7, 11, 1, 3*Millisecond)
	lp := pe.LP(0)
	parLog := run(func(at Time, fn Handler) { lp.At(at, fn) },
		func(d Time, fn Handler) { lp.After(d, fn) },
		lp.Rand().Uint64, pe.Run, lp.Now)

	if !reflect.DeepEqual(seqLog, parLog) {
		t.Fatalf("single-LP parallel run diverged from the sequential engine:\nseq: %v\npar: %v", seqLog, parLog)
	}
	if seq.Now() != pe.LP(0).Now() {
		t.Fatalf("clocks diverged: seq %v, parallel %v", seq.Now(), pe.LP(0).Now())
	}
	if seq.Fired() != pe.Fired() {
		t.Fatalf("fired %d vs %d", seq.Fired(), pe.Fired())
	}
}

// TestBucketBoundaryEvent pins down the window semantics the merge rule
// depends on: an event scheduled exactly at a bucket boundary k*L belongs
// to bucket k, and a cross-LP event sent with exactly lookahead delay from
// a bucket's first instant lands at the next boundary — delivered at the
// barrier before that bucket runs, never late ("zero-lookahead at a bucket
// boundary" is the degenerate case conservative sync must survive).
func TestBucketBoundaryEvent(t *testing.T) {
	const L = 10 * Millisecond
	pe := NewParallelEngine(1, 2, 2, L)
	var order []string
	// LP 0, at the first instant of bucket 0, sends with exactly lookahead
	// delay: the event fires at time L — the first instant of bucket 1.
	pe.LP(0).At(0, func() {
		pe.LP(0).Send(1, L, func() { order = append(order, fmt.Sprintf("xlp@%v", pe.LP(1).Now())) })
	})
	// A local event on LP 1 already sitting exactly at the boundary.
	pe.LP(1).At(L, func() { order = append(order, fmt.Sprintf("local@%v", pe.LP(1).Now())) })
	pe.Run(2 * L)
	// Both fire at L. The local event was scheduled before the barrier
	// delivery, so its sequence number is lower: local first, then the
	// delivered cross-LP event.
	want := []string{"local@10ms", "xlp@10ms"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("boundary order = %v, want %v", order, want)
	}
}

// TestSimultaneousCrossLPEventsMergeDeterministically is the merge rule
// itself: cross-LP events with equal timestamps dispatch by source LP
// index first, then send sequence within the source — not in the order the
// sends were issued.
func TestSimultaneousCrossLPEventsMergeDeterministically(t *testing.T) {
	const L = 5 * Millisecond
	pe := NewParallelEngine(1, 2, 4, L)
	var order []string
	record := func(tag string) func() {
		return func() { order = append(order, tag) }
	}
	// LPs 2, 1 and 0 all send events firing at the same instant 2*L into
	// LP 3. LP 2 sends two (seq order must hold within it), and the sends
	// are issued at different times inside bucket 0, highest LP first.
	pe.LP(2).At(0, func() {
		pe.LP(2).Send(3, 2*L, record("lp2-first"))
		pe.LP(2).Send(3, 2*L, record("lp2-second"))
	})
	pe.LP(1).At(2*Millisecond, func() {
		pe.LP(1).Send(3, 2*L-2*Millisecond, record("lp1"))
	})
	pe.LP(0).At(4*Millisecond, func() {
		pe.LP(0).Send(3, 2*L-4*Millisecond, record("lp0"))
	})
	pe.Run(3 * L)
	want := []string{"lp0", "lp1", "lp2-first", "lp2-second"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("merge order = %v, want %v", order, want)
	}
}

// TestRunSkipsEmptyBuckets checks the fast-forward: a simulation whose
// events are sparse relative to the lookahead must not pay a barrier per
// empty bucket.
func TestRunSkipsEmptyBuckets(t *testing.T) {
	pe := NewParallelEngine(1, 2, 2, Millisecond)
	fired := 0
	pe.LP(0).At(0, func() { fired++ })
	pe.LP(1).At(999*Millisecond, func() { fired++ })
	pe.Run(10 * Second)
	if fired != 2 {
		t.Fatalf("fired %d events, want 2", fired)
	}
	if pe.Windows() != 2 {
		t.Fatalf("executed %d windows, want 2 (empty buckets must be skipped)", pe.Windows())
	}
	if pe.LP(0).Now() != 10*Second || pe.LP(1).Now() != 10*Second {
		t.Fatalf("clocks %v/%v, want both at 10s", pe.LP(0).Now(), pe.LP(1).Now())
	}
}

// TestCrossEventBeyondHorizonStaysQueued checks Run's horizon contract:
// a delivered cross-LP event with a timestamp past until waits for the
// next Run, exactly like a local event would on the plain engine.
func TestCrossEventBeyondHorizonStaysQueued(t *testing.T) {
	const L = 10 * Millisecond
	pe := NewParallelEngine(1, 2, 2, L)
	fired := false
	pe.LP(0).At(0, func() {
		pe.LP(0).Send(1, 5*L, func() { fired = true })
	})
	pe.Run(3 * L)
	if fired {
		t.Fatal("cross-LP event fired before its timestamp's horizon")
	}
	if pe.LP(1).Pending() != 1 {
		t.Fatalf("destination LP holds %d pending events, want 1", pe.LP(1).Pending())
	}
	pe.Run(6 * L)
	if !fired {
		t.Fatal("cross-LP event never fired")
	}
}
