package realtime

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"ellog/internal/sim"
)

// node is one step of a generated schedule: a timer event at time t, or a
// posted callback, whose handler schedules its kids.
type node struct {
	id   int
	t    sim.Time
	post bool
	kids []*node
}

// genSchedule draws a forest of nodes. Times come from a range much smaller
// than the node count, so ties are the rule, and a kid's time is independent
// of its parent's, so about half the handler-scheduled events lie in the
// past.
func genSchedule(rng *rand.Rand, n int) []*node {
	id := 0
	var gen func(depth int) *node
	gen = func(depth int) *node {
		id++
		nd := &node{id: id, t: sim.Time(rng.IntN(12)), post: rng.IntN(4) == 0}
		if depth < 3 {
			for k := rng.IntN(4); k > 0; k-- {
				nd.kids = append(nd.kids, gen(depth+1))
			}
		}
		return nd
	}
	var roots []*node
	for id < n {
		roots = append(roots, gen(0))
	}
	return roots
}

// play issues the schedule through at/post and returns the log the handlers
// append their ids to.
func play(roots []*node, at func(sim.Time, func()), post func(func())) *[]int {
	log := new([]int)
	var issue func(nd *node)
	issue = func(nd *node) {
		fn := func() {
			*log = append(*log, nd.id)
			for _, k := range nd.kids {
				issue(k)
			}
		}
		if nd.post {
			post(fn)
		} else {
			at(nd.t, fn)
		}
	}
	for _, nd := range roots {
		issue(nd)
	}
	return log
}

// TestLoopFiresLikeEngine is the differential test for the queue the loop
// no longer has: a random schedule with ties, past times, handler-scheduled
// events and interleaved Posts runs on a Loop whose start lies an hour back —
// every timestamp is due, so one pass decides the whole order — and on a bare
// sim.Engine driven the way Run's doc comment says: a past time moves up to
// the last-fired timestamp, and the mailbox empties once before each event.
func TestLoopFiresLikeEngine(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		roots := genSchedule(rand.New(rand.NewPCG(seed, 99)), 60)

		l := New(seed)
		l.start = time.Now().Add(-time.Hour)
		got := play(roots, func(t sim.Time, fn func()) { l.At(t, fn) }, l.Post)
		for l.Pending() > 0 || len(l.posted) > 0 {
			l.Run(0)
		}

		eng := sim.NewEngine(seed, seed)
		var mailbox []func()
		drain := func() {
			posts := mailbox
			mailbox = nil
			for _, fn := range posts {
				fn()
			}
		}
		want := play(roots,
			func(t sim.Time, fn func()) { eng.At(max(t, eng.Now()), fn) },
			func(fn func()) { mailbox = append(mailbox, fn) })
		for eng.Pending() > 0 || len(mailbox) > 0 {
			drain()
			for eng.Step() {
				drain()
			}
		}

		if !slices.Equal(*got, *want) {
			t.Fatalf("seed %d: loop fired\n%v\nengine fired\n%v", seed, *got, *want)
		}
		if l.Fired() != eng.Fired() {
			t.Fatalf("seed %d: loop Fired=%d, engine %d", seed, l.Fired(), eng.Fired())
		}
	}
}

// TestLoopScheduleFireZeroAllocs: once the arena has seen its peak, arming a
// timer and firing it allocates nothing.
func TestLoopScheduleFireZeroAllocs(t *testing.T) {
	l := New(1)
	fn := func() {}
	cycle := func() {
		l.After(0, fn)
		l.Run(0)
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("After + fire allocates %v times per event, want 0", n)
	}
	if l.Pending() != 0 {
		t.Fatalf("Pending=%d after the last cycle", l.Pending())
	}
}

// TestLoopEventIDsFollowTheClockContract: ids are nonzero and unique per
// schedule, and an id kept past its event's firing cannot alias the event
// that reuses its slot — the reissued slot carries a new generation tag.
func TestLoopEventIDsFollowTheClockContract(t *testing.T) {
	l := New(1)
	fn := func() {}
	seen := make(map[sim.EventID]bool)
	issue := func() sim.EventID {
		id := l.At(0, fn)
		if id == 0 || seen[id] {
			t.Fatalf("EventID %#x is zero or was issued before", uint64(id))
		}
		seen[id] = true
		return id
	}
	for i := 0; i < 8; i++ {
		issue()
	}
	l.Run(0)
	first := issue()
	l.Run(0)
	again := issue()
	if uint32(first) != uint32(again) {
		t.Fatalf("slot not reused: %#x then %#x", uint64(first), uint64(again))
	}
	if again>>32 != first>>32+1 {
		t.Fatalf("reissued slot kept its tag: %#x then %#x", uint64(first), uint64(again))
	}
}
