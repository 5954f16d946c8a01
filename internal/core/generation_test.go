package core

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"ellog/internal/blockdev"
	"ellog/internal/sim"
)

func newTestGen(t *testing.T, size int) (*generation, *blockdev.Device) {
	t.Helper()
	eng := sim.NewEngine(1, 2)
	dev := blockdev.New(eng, sim.Millisecond)
	return newGeneration(0, size, dev, 4), dev
}

// claimN claims n slots, marking them durable immediately (the tests here
// exercise ring arithmetic, not the write path).
func claimN(g *generation, n int) []*slot {
	var out []*slot
	for i := 0; i < n; i++ {
		s := g.claimSlot()
		s.state = slotDurable
		out = append(out, s)
	}
	return out
}

func TestRingClaimFree(t *testing.T) {
	g, _ := newTestGen(t, 6)
	if g.freeSlots() != 6 || g.headSlot() != nil {
		t.Fatal("fresh generation not empty")
	}
	claimN(g, 4)
	if g.used != 4 || g.freeSlots() != 2 {
		t.Fatalf("used=%d free=%d", g.used, g.freeSlots())
	}
	g.freeHeadSlot()
	g.freeHeadSlot()
	if g.used != 2 || g.head != 2 {
		t.Fatalf("after frees: used=%d head=%d", g.used, g.head)
	}
	// Wrap: claim past the end of the ring.
	claimN(g, 3)
	if g.used != 5 || g.tail != 1 {
		t.Fatalf("after wrap: used=%d tail=%d", g.used, g.tail)
	}
}

func TestClaimOccupiedPanics(t *testing.T) {
	g, _ := newTestGen(t, 4)
	claimN(g, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("claim of occupied slot did not panic")
		}
	}()
	g.claimSlot()
}

func TestFreeNonDurablePanics(t *testing.T) {
	g, _ := newTestGen(t, 4)
	g.claimSlot() // stays slotFree->claimed without durable state
	defer func() {
		if recover() == nil {
			t.Fatal("freeing non-durable head did not panic")
		}
	}()
	g.freeHeadSlot()
}

func TestGrowPreservesOccupiedRegion(t *testing.T) {
	g, dev := newTestGen(t, 5)
	claimed := claimN(g, 3)
	g.freeHeadSlot() // head=1, used=2 (slots 1,2 occupied)
	g.grow(dev, 2)
	if g.size() != 7 {
		t.Fatalf("size=%d after grow", g.size())
	}
	// The occupied region must still be exactly the claimed slots 1,2.
	if g.headSlot() != claimed[1] {
		t.Fatal("grow disturbed the head slot")
	}
	occupied := 0
	for _, s := range g.ring {
		if s.state != slotFree {
			occupied++
		}
	}
	if occupied != g.used {
		t.Fatalf("occupied=%d used=%d after grow", occupied, g.used)
	}
	// New claims use the inserted free slots.
	s := g.claimSlot()
	if s == claimed[0] {
		t.Fatal("grow did not insert at the claim point")
	}
}

func TestGrowWhenWrapped(t *testing.T) {
	g, dev := newTestGen(t, 4)
	claimN(g, 4)
	g.freeHeadSlot()
	g.freeHeadSlot() // head=2, tail=0: occupied region wraps [2,3]
	claimN(g, 1)     // tail=1
	hs := g.headSlot()
	g.grow(dev, 3)
	if g.headSlot() != hs {
		t.Fatal("grow with wrapped region moved the head")
	}
	if g.size() != 7 || g.freeSlots() != 4 {
		t.Fatalf("size=%d free=%d", g.size(), g.freeSlots())
	}
}

func TestShrinkRemovesFreeSlots(t *testing.T) {
	g, _ := newTestGen(t, 10)
	claimN(g, 3)
	// free=7, k=2: shrinkable = 7-2-1 = 4.
	if got := g.shrinkable(2); got != 4 {
		t.Fatalf("shrinkable=%d, want 4", got)
	}
	if got := g.shrink(10, 2); got != 4 {
		t.Fatalf("shrink removed %d, want 4", got)
	}
	if g.size() != 6 || g.used != 3 {
		t.Fatalf("size=%d used=%d after shrink", g.size(), g.used)
	}
	// Ring still consistent: can keep claiming and freeing.
	s := g.headSlot()
	if s == nil || s.state != slotDurable {
		t.Fatal("head lost after shrink")
	}
	g.freeHeadSlot()
	claimN(g, 2)
}

func TestShrinkRespectsRefugees(t *testing.T) {
	g, _ := newTestGen(t, 8)
	claimN(g, 2)
	// Mark the slot just before the head (the shrink target) as holding
	// refugees.
	idx := g.head - 1
	if idx < 0 {
		idx += len(g.ring)
	}
	g.ring[idx].refugees = 1
	if got := g.shrink(2, 2); got != 0 {
		t.Fatalf("shrink removed %d slots protected by refugees", got)
	}
}

// TestRingRandomOps exercises claim/free/grow/shrink sequences and checks
// ring invariants after every operation.
func TestRingRandomOps(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 9))
		eng := sim.NewEngine(seed, 2)
		dev := blockdev.New(eng, sim.Millisecond)
		g := newGeneration(0, 4+rng.IntN(8), dev, 4)
		const k = 2
		for op := 0; op < 300; op++ {
			switch rng.IntN(10) {
			case 0, 1, 2, 3:
				if g.freeSlots() > k {
					s := g.claimSlot()
					s.state = slotDurable
				}
			case 4, 5, 6:
				if g.used > 0 && g.headSlot().state == slotDurable {
					g.freeHeadSlot()
				}
			case 7:
				g.grow(dev, 1+rng.IntN(2))
			case 8, 9:
				g.shrink(1+rng.IntN(2), k)
			}
			// Invariants: occupancy count matches states; occupied region
			// is exactly [head, tail) circularly.
			occupied := 0
			for _, s := range g.ring {
				if s.state != slotFree {
					occupied++
				}
			}
			if occupied != g.used {
				return false
			}
			if g.used > 0 {
				idx := g.head
				for i := 0; i < g.used; i++ {
					if g.ring[idx].state == slotFree {
						return false
					}
					idx = (idx + 1) % len(g.ring)
				}
				if idx != g.tail {
					return false
				}
			}
			if g.head < 0 || g.head >= len(g.ring) || g.tail < 0 || g.tail >= len(g.ring) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAgeQuantiles(t *testing.T) {
	g, _ := newTestGen(t, 4)
	if q, n := g.ageQuantile(0.9); q != 0 || n != 0 {
		t.Fatal("empty histogram not zero")
	}
	for i := 0; i < 90; i++ {
		g.noteAge(100 * sim.Millisecond) // bucket 0
	}
	for i := 0; i < 10; i++ {
		g.noteAge(5 * sim.Second)
	}
	q90, n := g.ageQuantile(0.90)
	if n != 100 {
		t.Fatalf("samples = %d", n)
	}
	if q90 != ageBucket {
		t.Fatalf("q90 = %v, want one bucket (%v)", q90, ageBucket)
	}
	q99, _ := g.ageQuantile(0.99)
	if q99 < 5*sim.Second {
		t.Fatalf("q99 = %v, want >= 5s", q99)
	}
	// Overflow bucket.
	g.noteAge(100 * sim.Second)
	if q, _ := g.ageQuantile(1.0); q != sim.Time(ageBuckets)*ageBucket && q != sim.Time(ageBuckets-1+1)*ageBucket {
		t.Fatalf("overflow quantile = %v", q)
	}
}

// BenchmarkClaimSlot prices a block claim on a 2048-slot generation whose
// occupied region is durable garbage the lazy head advance has not freed —
// what generation 0 of a saturated real run looks like. The cost of a claim
// must not depend on how much of that there is: a claim once walked all of
// it, from the head, to keep a statistic nothing read.
func BenchmarkClaimSlot(b *testing.B) {
	for _, used := range []int{8, 2000} {
		b.Run(fmt.Sprintf("used=%d", used), func(b *testing.B) {
			s, err := NewSetup(sim.NewEngine(1, 2), Params{Mode: ModeEphemeral, GenSizes: []int{2048, 64}, Recirculate: true},
				FlushConfig{Drives: 1, Transfer: sim.Millisecond, NumObjects: 1})
			if err != nil {
				b.Fatal(err)
			}
			m := s.LM
			g := m.gens[0]
			claimN(g, used)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.claimGuarded(g).state = slotDurable
				g.freeHeadSlot() // occupancy stays where it was
			}
			if g.used != used {
				b.Fatalf("generation holds %d blocks, want %d", g.used, used)
			}
		})
	}
}
