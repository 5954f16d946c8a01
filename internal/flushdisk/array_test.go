package flushdisk

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"ellog/internal/logrec"
	"ellog/internal/sim"
)

func collectorArray(eng *sim.Engine, drives int, transfer sim.Time, objects uint64) (*Array, *[]Request) {
	var got []Request
	a := New(eng, drives, transfer, objects, func(r Request) { got = append(got, r) })
	return a, &got
}

func TestSingleFlushTiming(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	a, got := collectorArray(eng, 1, 25*sim.Millisecond, 1000)
	a.Enqueue(Request{Obj: 5, LSN: 1, Val: 11})
	eng.Run(24 * sim.Millisecond)
	if len(*got) != 0 {
		t.Fatal("flush completed before transfer time")
	}
	eng.Run(25 * sim.Millisecond)
	if len(*got) != 1 || (*got)[0].Obj != 5 {
		t.Fatalf("flushes = %v", *got)
	}
}

func TestRangePartitioning(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	a, _ := collectorArray(eng, 10, 25*sim.Millisecond, 1000)
	// Objects 0..99 -> drive 0, 100..199 -> drive 1, etc.
	if d := a.driveFor(0); d.lo != 0 {
		t.Fatalf("oid 0 on drive starting at %d", d.lo)
	}
	if d := a.driveFor(999); d.lo != 900 {
		t.Fatalf("oid 999 on drive starting at %d", d.lo)
	}
	if d := a.driveFor(100); d.lo != 100 {
		t.Fatalf("oid 100 on drive starting at %d", d.lo)
	}
}

func TestBadPartitionPanics(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("non-multiple object count did not panic")
		}
	}()
	New(eng, 3, sim.Millisecond, 1000, nil) // 1000 % 3 != 0
}

func TestDrivesWorkInParallel(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	a, got := collectorArray(eng, 2, 25*sim.Millisecond, 1000)
	a.Enqueue(Request{Obj: 10, LSN: 1})  // drive 0
	a.Enqueue(Request{Obj: 600, LSN: 2}) // drive 1
	eng.Run(25 * sim.Millisecond)
	if len(*got) != 2 {
		t.Fatalf("parallel drives: %d flushes after one transfer time, want 2", len(*got))
	}
}

func TestSameDriveSerializes(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	a, got := collectorArray(eng, 1, 25*sim.Millisecond, 1000)
	a.Enqueue(Request{Obj: 10, LSN: 1})
	a.Enqueue(Request{Obj: 20, LSN: 2})
	eng.Run(25 * sim.Millisecond)
	if len(*got) != 1 {
		t.Fatalf("same drive: %d flushes after one transfer, want 1", len(*got))
	}
	eng.Run(50 * sim.Millisecond)
	if len(*got) != 2 {
		t.Fatalf("same drive: %d flushes after two transfers, want 2", len(*got))
	}
}

func TestShortestSeekOrder(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	a, got := collectorArray(eng, 1, 10*sim.Millisecond, 1000)
	// First service picks min oid (no position yet): 100. After that the
	// head sits at 100; nearest of {900, 300, 150} circularly is 150 (50),
	// then 300 (150), then 900 (dist min(600, 400)=400).
	a.Enqueue(Request{Obj: 100, LSN: 1})
	eng.Run(5 * sim.Millisecond) // 100 now in service
	a.Enqueue(Request{Obj: 900, LSN: 2})
	a.Enqueue(Request{Obj: 300, LSN: 3})
	a.Enqueue(Request{Obj: 150, LSN: 4})
	eng.Run(sim.Second)
	want := []logrec.OID{100, 150, 300, 900}
	if len(*got) != len(want) {
		t.Fatalf("flushed %d objects, want %d", len(*got), len(want))
	}
	for i, r := range *got {
		if r.Obj != want[i] {
			t.Fatalf("flush order %v, want %v", *got, want)
		}
	}
}

func TestWraparoundSeek(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	a, got := collectorArray(eng, 1, 10*sim.Millisecond, 1000)
	a.Enqueue(Request{Obj: 990, LSN: 1})
	eng.Run(5 * sim.Millisecond)
	// Head at 990 after first flush. Distance to 10 wraps: min(980, 20)=20,
	// distance to 500 is min(490,510)=490. So 10 flushes before 500.
	a.Enqueue(Request{Obj: 500, LSN: 2})
	a.Enqueue(Request{Obj: 10, LSN: 3})
	eng.Run(sim.Second)
	if (*got)[1].Obj != 10 || (*got)[2].Obj != 500 {
		t.Fatalf("wraparound seek order %v", *got)
	}
}

func TestCircDist(t *testing.T) {
	cases := []struct {
		a, b, lo, span, want uint64
	}{
		{0, 0, 0, 100, 0},
		{10, 30, 0, 100, 20},
		{90, 10, 0, 100, 20}, // wraps
		{110, 130, 100, 100, 20},
		{190, 110, 100, 100, 20}, // wraps within [100,200)
		{0, 50, 0, 100, 50},      // max distance
	}
	for _, c := range cases {
		if got := circDist(c.a, c.b, c.lo, c.span); got != c.want {
			t.Errorf("circDist(%d,%d,lo=%d,span=%d) = %d, want %d", c.a, c.b, c.lo, c.span, got, c.want)
		}
	}
}

func TestSupersedingEnqueueReplaces(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	a, got := collectorArray(eng, 1, 10*sim.Millisecond, 1000)
	a.Enqueue(Request{Obj: 100, LSN: 1})
	eng.Run(5 * sim.Millisecond) // obj 100 in service with LSN 1
	a.Enqueue(Request{Obj: 200, LSN: 2})
	a.Enqueue(Request{Obj: 200, LSN: 3, Val: 9}) // supersedes while queued
	eng.Run(sim.Second)
	if len(*got) != 2 {
		t.Fatalf("%d flushes, want 2 (replacement, not duplicate)", len(*got))
	}
	if (*got)[1].LSN != 3 || (*got)[1].Val != 9 {
		t.Fatalf("queued request not replaced: %v", (*got)[1])
	}
}

func TestRemove(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	a, got := collectorArray(eng, 1, 10*sim.Millisecond, 1000)
	a.Enqueue(Request{Obj: 100, LSN: 1})
	eng.Run(5 * sim.Millisecond)
	a.Enqueue(Request{Obj: 300, LSN: 2})
	if !a.Remove(300) {
		t.Fatal("Remove of queued request returned false")
	}
	if a.Remove(300) {
		t.Fatal("Remove of absent request returned true")
	}
	eng.Run(sim.Second)
	if len(*got) != 1 {
		t.Fatalf("removed request still flushed: %v", *got)
	}
}

func TestForceFlushImmediateAndCharged(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	a, got := collectorArray(eng, 1, 10*sim.Millisecond, 1000)
	a.Enqueue(Request{Obj: 100, LSN: 1})
	eng.Run(5 * sim.Millisecond) // 100 in service, completes at t=10ms
	a.Enqueue(Request{Obj: 400, LSN: 2})
	a.ForceFlush(Request{Obj: 200, LSN: 3})
	if len(*got) != 1 || (*got)[0].Obj != 200 {
		t.Fatalf("force flush not immediate: %v", *got)
	}
	// The queued 400 should now be delayed by the 10ms debt: service starts
	// at 10ms, takes 10+10=20ms, completes at 30ms.
	eng.Run(29 * sim.Millisecond)
	if len(*got) != 2 {
		t.Fatalf("expected only in-service flush by 29ms, got %v", *got)
	}
	eng.Run(30 * sim.Millisecond)
	if len(*got) != 3 || (*got)[2].Obj != 400 {
		t.Fatalf("debt-delayed flush wrong: %v", *got)
	}
	if s := a.Stats(eng.Now()); s.Forced != 1 || s.Flushes != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestThroughputMatchesCapacity(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	a, got := collectorArray(eng, 10, 25*sim.Millisecond, 10_000_000)
	if rate := a.MaxRate(); rate != 400 {
		t.Fatalf("MaxRate = %v, want 400", rate)
	}
	// Saturate: enqueue 1000 spread over all drives, run 1 second.
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 1000; i++ {
		a.Enqueue(Request{Obj: logrec.OID(rng.Uint64() % 10_000_000), LSN: logrec.LSN(i)})
	}
	eng.Run(sim.Second)
	// 10 drives * 40 per second = 400 expected.
	if n := len(*got); n < 390 || n > 410 {
		t.Fatalf("saturated throughput %d flushes/s, want ~400", n)
	}
	s := a.Stats(eng.Now())
	if s.BusyFrac < 0.95 {
		t.Fatalf("saturated BusyFrac = %v, want ~1", s.BusyFrac)
	}
	if s.MaxPending < 900 {
		t.Fatalf("MaxPending = %d, want near 1000", s.MaxPending)
	}
}

// TestBacklogImprovesLocality reproduces the qualitative claim of section 4:
// as the backlog grows, shortest-seek scheduling finds closer objects, so
// the average inter-flush distance drops.
func TestBacklogImprovesLocality(t *testing.T) {
	run := func(backlog int) float64 {
		eng := sim.NewEngine(7, 8)
		a, _ := collectorArray(eng, 1, 10*sim.Millisecond, 1_000_000)
		rng := rand.New(rand.NewPCG(9, 10))
		// Maintain a steady backlog of the given size for 2000 flushes.
		for i := 0; i < backlog; i++ {
			a.Enqueue(Request{Obj: logrec.OID(rng.Uint64() % 1_000_000)})
		}
		for i := 0; i < 2000; i++ {
			eng.Run(eng.Now() + 10*sim.Millisecond)
			a.Enqueue(Request{Obj: logrec.OID(rng.Uint64() % 1_000_000)})
		}
		return a.Stats(eng.Now()).AvgDistance
	}
	small := run(1)
	large := run(16)
	if large >= small/2 {
		t.Fatalf("locality did not improve with backlog: dist(backlog=1)=%v dist(backlog=16)=%v", small, large)
	}
}

// TestNearestIsTrueMinimum cross-checks the treap-based nearest search
// against brute force over random pending sets.
func TestNearestIsTrueMinimum(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		eng := sim.NewEngine(seed, 2)
		a, _ := collectorArray(eng, 1, sim.Millisecond, 1000)
		d := a.drives[0]
		d.started = true
		d.pos = rng.Uint64() % 1000
		oids := map[uint64]bool{}
		for i := 0; i < 1+rng.IntN(30); i++ {
			o := rng.Uint64() % 1000
			oids[o] = true
			d.pending.Put(o, Request{Obj: logrec.OID(o)})
		}
		got, ok := a.nearest(d)
		if !ok {
			return false
		}
		best := uint64(1) << 62
		for o := range oids {
			if dist := circDist(d.pos, o, 0, 1000); dist < best {
				best = dist
			}
		}
		return circDist(d.pos, uint64(got.Obj), 0, 1000) == best
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStallDelaysService(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	a, got := collectorArray(eng, 2, 25*sim.Millisecond, 1000)
	// Stall only drive 0, once.
	stalls := 0
	a.SetStall(func(drive int) sim.Time {
		if drive == 0 && stalls == 0 {
			stalls++
			return 40 * sim.Millisecond
		}
		return 0
	})
	a.Enqueue(Request{Obj: 5, LSN: 1})   // drive 0: stalled, lands at 65 ms
	a.Enqueue(Request{Obj: 600, LSN: 2}) // drive 1: clean, lands at 25 ms
	eng.Run(25 * sim.Millisecond)
	if len(*got) != 1 || (*got)[0].Obj != 600 {
		t.Fatalf("at 25ms flushed %v, want only obj 600", *got)
	}
	eng.Run(64 * sim.Millisecond)
	if len(*got) != 1 {
		t.Fatal("stalled flush completed early")
	}
	eng.Run(65 * sim.Millisecond)
	if len(*got) != 2 || (*got)[1].Obj != 5 {
		t.Fatalf("at 65ms flushed %v, want obj 5 second", *got)
	}
	// Detach: subsequent service is clean again.
	a.SetStall(nil)
	a.Enqueue(Request{Obj: 6, LSN: 3})
	eng.Run(90 * sim.Millisecond)
	if len(*got) != 3 {
		t.Fatalf("post-detach flush missing: %v", *got)
	}
}

func TestStatsEmpty(t *testing.T) {
	eng := sim.NewEngine(1, 2)
	a, _ := collectorArray(eng, 2, sim.Millisecond, 1000)
	s := a.Stats(0)
	if s.Flushes != 0 || s.AvgDistance != 0 || s.BusyFrac != 0 {
		t.Fatalf("empty stats %+v", s)
	}
}

// lateClock is a clock whose handlers run late, as they do on the wall-clock
// loop: advance moves the time first and only then fires what has come due,
// in due order, every handler reading the new time.
type lateClock struct {
	now sim.Time
	evs []lateEv
}

type lateEv struct {
	at sim.Time
	fn sim.Handler
}

func (c *lateClock) Now() sim.Time { return c.now }
func (c *lateClock) At(t sim.Time, fn sim.Handler) sim.EventID {
	c.evs = append(c.evs, lateEv{t, fn})
	return 0
}
func (c *lateClock) After(d sim.Time, fn sim.Handler) sim.EventID { return c.At(c.now+d, fn) }

func (c *lateClock) advance(to sim.Time) {
	c.now = to
	for {
		due := -1
		for i, e := range c.evs {
			if e.at <= c.now && (due < 0 || e.at < c.evs[due].at) {
				due = i
			}
		}
		if due < 0 {
			return
		}
		fn := c.evs[due].fn
		c.evs = append(c.evs[:due], c.evs[due+1:]...)
		fn()
	}
}

// TestLateHandlersDoNotIdleTheDrive: a drive working through its queue
// starts each request when the one before was done, not when the completion
// handler got to run, so a clock that fires late costs the array no capacity;
// a drive found idle starts at the time it is found.
func TestLateHandlersDoNotIdleTheDrive(t *testing.T) {
	clk := &lateClock{}
	var got []Request
	a := New(clk, 1, 20*sim.Microsecond, 1000, func(r Request) { got = append(got, r) })
	for i := 0; i < 10; i++ {
		a.Enqueue(Request{Obj: logrec.OID(10 * i), LSN: logrec.LSN(i + 1)})
	}
	clk.advance(sim.Millisecond) // one late pass: 200 µs of work is 1 ms overdue
	if len(got) != 10 || a.PendingCount() != 0 {
		t.Fatalf("%d of 10 queued flushes done 1 ms in, %d pending: the drive idled between requests", len(got), a.PendingCount())
	}
	for i, r := range got {
		if r.Obj != logrec.OID(10*i) {
			t.Fatalf("flush %d is object %d, want nearest-first order", i, r.Obj)
		}
	}
	// Idle since 200 µs: a request found now starts now, not back then.
	a.Enqueue(Request{Obj: 500, LSN: 11})
	clk.advance(sim.Millisecond + 19*sim.Microsecond)
	if len(got) != 10 {
		t.Fatal("an idle drive served a request in less than its transfer time")
	}
	clk.advance(sim.Millisecond + 20*sim.Microsecond)
	if len(got) != 11 {
		t.Fatal("flush not done one transfer time after an idle drive took it")
	}
	if st := a.Stats(clk.Now()); st.Flushes != 11 || st.MaxPending != 9 {
		t.Fatalf("Stats = %+v, want 11 flushes, peak backlog 9", st)
	}
}
