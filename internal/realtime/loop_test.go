package realtime

import (
	"sync/atomic"
	"testing"
	"time"

	"ellog/internal/sim"
)

func TestRunFiresInTimeOrder(t *testing.T) {
	l := New(1)
	var got []int
	l.After(3*sim.Millisecond, func() { got = append(got, 3) })
	l.After(1*sim.Millisecond, func() { got = append(got, 1) })
	l.After(2*sim.Millisecond, func() { got = append(got, 2) })
	l.Run(20 * sim.Millisecond)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired in order %v, want [1 2 3]", got)
	}
	if l.Fired() != 3 || l.Pending() != 0 {
		t.Fatalf("Fired=%d Pending=%d, want 3 and 0", l.Fired(), l.Pending())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	l := New(1)
	var got []int
	at := l.Now() + 2*sim.Millisecond
	for i := 0; i < 5; i++ {
		i := i
		l.At(at, func() { got = append(got, i) })
	}
	l.Run(10 * sim.Millisecond)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events fired %v, want FIFO order", got)
		}
	}
}

func TestPastEventFiresInsteadOfPanicking(t *testing.T) {
	l := New(1)
	time.Sleep(2 * time.Millisecond)
	fired := false
	l.At(0, func() { fired = true }) // wall clock has moved past 0
	l.Run(l.Now() + sim.Millisecond)
	if !fired {
		t.Fatal("past-scheduled event never fired")
	}
}

func TestEventsBeyondHorizonStayPending(t *testing.T) {
	l := New(1)
	fired := false
	l.After(3600*sim.Second, func() { fired = true })
	l.Run(l.Now() + sim.Millisecond)
	if fired {
		t.Fatal("event beyond the horizon fired")
	}
	if l.Pending() != 1 {
		t.Fatalf("Pending=%d, want 1", l.Pending())
	}
}

func TestPostWakesRun(t *testing.T) {
	l := New(1)
	var fired atomic.Bool
	start := time.Now()
	go func() {
		time.Sleep(5 * time.Millisecond)
		l.Post(func() { fired.Store(true) })
	}()
	// The loop sleeps toward a far horizon; the Post must wake it long
	// before that.
	done := make(chan struct{})
	go func() {
		for !fired.Load() {
			time.Sleep(time.Millisecond)
		}
		close(done)
	}()
	go l.Run(5 * sim.Second)
	select {
	case <-done:
		if time.Since(start) > 2*time.Second {
			t.Fatal("Post took implausibly long to be dispatched")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("posted callback never ran")
	}
}

// TestRunAtHorizonDrainsWithoutSleeping pins what drain loops rely on: a Run
// whose horizon has already passed still makes one pass — posted callbacks
// first, then due timers — and returns without sleeping; on an idle loop it
// fires nothing.
func TestRunAtHorizonDrainsWithoutSleeping(t *testing.T) {
	l := New(1)
	var got []string
	l.At(0, func() { got = append(got, "timer") })
	l.Post(func() { got = append(got, "post") })
	l.After(3600*sim.Second, func() { got = append(got, "far") })
	start := time.Now()
	l.Run(0)
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Run at a passed horizon took %v; it must not sleep toward the far timer", took)
	}
	if len(got) != 2 || got[0] != "post" || got[1] != "timer" {
		t.Fatalf("pass ran %v, want [post timer]", got)
	}
	l.Run(0)
	if len(got) != 2 || l.Fired() != 1 {
		t.Fatalf("idle pass ran work: %v, Fired=%d", got, l.Fired())
	}
}

// TestPostRunsAheadOfDueTimers: a callback posted by a handler runs when
// that handler returns, not behind the timer events that are already due.
func TestPostRunsAheadOfDueTimers(t *testing.T) {
	l := New(1)
	var got []string
	l.At(0, func() {
		got = append(got, "first")
		l.Post(func() { got = append(got, "post") })
	})
	l.At(0, func() { got = append(got, "second") })
	l.Run(0)
	if len(got) != 3 || got[0] != "first" || got[1] != "post" || got[2] != "second" {
		t.Fatalf("pass ran %v, want [first post second]", got)
	}
}

// TestPostZeroAllocs: once the mailbox has grown to the largest pass,
// posting a callback and running the pass that drains it allocates nothing.
func TestPostZeroAllocs(t *testing.T) {
	l := New(1)
	ran := 0
	fn := func() { ran++ }
	cycle := func() {
		l.Post(fn)
		l.Post(fn)
		l.Run(0)
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("Post + drain allocates %v times per pass, want 0", n)
	}
	if want := 2 * 1002; ran != want {
		t.Fatalf("%d callbacks ran, want %d", ran, want)
	}
}

func TestRandIsSeededDeterministically(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 16; i++ {
		if a.Rand().Uint64() != b.Rand().Uint64() {
			t.Fatal("same seed produced different random streams")
		}
	}
}
