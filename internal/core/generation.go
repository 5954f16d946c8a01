package core

import (
	"fmt"

	"ellog/internal/blockdev"
	"ellog/internal/logrec"
	"ellog/internal/sim"
)

// slotState tracks one block position in a generation's circular array.
type slotState uint8

const (
	slotFree slotState = iota
	slotFilling
	slotInFlight
	slotDurable
)

func (s slotState) String() string {
	switch s {
	case slotFree:
		return "free"
	case slotFilling:
		return "filling"
	case slotInFlight:
		return "in-flight"
	case slotDurable:
		return "durable"
	default:
		return fmt.Sprintf("slotState(%d)", uint8(s))
	}
}

// slot is one block position in a generation. Slots are reused cyclically;
// the underlying device block keeps its stale bytes until physically
// rewritten, which is what makes lazy recirculation buffers safe.
type slot struct {
	id    blockdev.BlockID
	state slotState
	// refugees counts records drained out of this slot into a buffer that
	// is not yet durable. While positive, the slot's old contents are the
	// only durable copy and the slot must not be rewritten (section 2.2:
	// "the existing copies of these records will not be overwritten until
	// after the tail has advanced").
	refugees int
}

// buffer assembles records destined for one block write. Generation 0's
// current buffer receives new log records; forwarding and recirculation
// fill buffers destined for an older generation's tail. A recirculation
// buffer may be slotless (slot == nil) until it is about to be written —
// the paper's lazy recirculation (section 2.2).
type buffer struct {
	slot *slot
	free int
	recs []*logrec.Record
	// cells[i] is the cell recs[i] was appended for. The pointer outlives
	// the pairing: the cell may since have taken a newer record, died and
	// been recycled, so readers first check cells[i].rec == recs[i].
	cells   []*cell
	origins []*slot     // refugee accounting: one entry per drained record
	commits []*lttEntry // transactions whose COMMIT record rides in this buffer
	sealed  bool
	epoch   uint64      // bumped on recycle; guards stale group-commit timeouts
	gen     *generation // the generation whose tail the buffer fills

	// Group-commit timer (armGroupCommitTimeout): the handler, built once
	// per buffer like done, the timers armed and not yet fired, and the
	// epoch the last of them was armed for.
	timeout  func()
	timers   int
	armedFor uint64

	// Write state, set by writeOut: the attempt in progress (1 is the
	// original issue, higher are fault retries), and the completion callback
	// handed to the device — built once per buffer, so issuing a write
	// allocates nothing.
	attempt int
	done    func(err error)
}

// generation is one fixed-size queue of the log chain: a circular array of
// block slots with head and tail pointers that rotate through it, plus the
// circular cell list tracking its non-garbage records.
type generation struct {
	idx  int
	ring []*slot
	head int // ring index of the oldest occupied slot
	tail int // ring index of the next slot to claim
	used int // occupied slots (filling + in-flight + durable)

	list cellList
	fill *buffer // current fill buffer, nil if none (always slotted)

	// epoch pressure counters for the adaptive controller
	epochPeakUsed int
	epochKills    uint64
	epochEmerg    uint64
	epochIn       uint64 // records entering this generation
	epochOut      uint64 // records forwarded out to the next generation
	epochClaims   uint64 // blocks claimed (the fill rate signal)
	// epochAges histograms the residence time of records that became
	// garbage in this generation, in ageBucket-wide buckets with the last
	// bucket as overflow. The adaptive controller sizes a generation from
	// a high quantile of this distribution times the fill rate.
	epochAges [ageBuckets]uint32
	// pend is the slotless recirculation buffer of the last generation:
	// records drained from the head waiting to be written at the tail.
	pend *buffer

	tokens int // free block buffers
}

func newGeneration(idx, size int, dev LogDevice, tokens int) *generation {
	g := &generation{idx: idx, tokens: tokens}
	for i := 0; i < size; i++ {
		g.ring = append(g.ring, &slot{id: dev.Alloc(idx)})
	}
	return g
}

// free returns the number of unoccupied slots.
func (g *generation) freeSlots() int { return len(g.ring) - g.used }

// headSlot returns the oldest occupied slot, or nil if empty.
func (g *generation) headSlot() *slot {
	if g.used == 0 {
		return nil
	}
	return g.ring[g.head]
}

// claimSlot takes the slot at the tail. The caller must have ensured space.
func (g *generation) claimSlot() *slot {
	s := g.ring[g.tail]
	if s.state != slotFree {
		panic(fmt.Sprintf("core: gen %d claiming non-free slot (%v)", g.idx, s.state))
	}
	g.tail = (g.tail + 1) % len(g.ring)
	g.used++
	g.epochClaims++
	if g.used > g.epochPeakUsed {
		g.epochPeakUsed = g.used
	}
	return s
}

// freeHeadSlot releases the current head slot and advances the head.
func (g *generation) freeHeadSlot() {
	s := g.ring[g.head]
	if s.state != slotDurable {
		panic(fmt.Sprintf("core: gen %d freeing %v head slot", g.idx, s.state))
	}
	s.state = slotFree
	g.head = (g.head + 1) % len(g.ring)
	g.used--
}

// grow inserts additional free slots at the tail insertion point. Used
// only by the adaptive-sizing extension and the emergency overflow path;
// the paper's experiments run with fixed sizes.
func (g *generation) grow(dev LogDevice, n int) {
	for i := 0; i < n; i++ {
		s := &slot{id: dev.Alloc(g.idx)}
		// Insert at the tail index: the free region starts there, so the
		// occupied region [head, tail) is untouched.
		g.ring = append(g.ring, nil)
		copy(g.ring[g.tail+1:], g.ring[g.tail:])
		g.ring[g.tail] = s
		if g.head >= g.tail && g.used > 0 {
			g.head++ // occupied region wraps; head sat at or past the insertion point
		}
	}
}

// shrinkable reports how many slots could be removed while keeping the
// occupied region plus the threshold gap intact.
func (g *generation) shrinkable(k int) int {
	n := g.freeSlots() - k - 1
	if n < 0 {
		return 0
	}
	return n
}

// shrink removes up to n free slots from the end of the free region (just
// before the head), returning how many were removed.
func (g *generation) shrink(n, k int) int {
	can := g.shrinkable(k)
	if n > can {
		n = can
	}
	for i := 0; i < n; i++ {
		// Remove the free slot immediately preceding the head in ring
		// order; it is the last one that would be claimed.
		idx := g.head - 1
		if idx < 0 {
			idx += len(g.ring)
		}
		s := g.ring[idx]
		if s.state != slotFree || s.refugees > 0 {
			return i
		}
		g.ring = append(g.ring[:idx], g.ring[idx+1:]...)
		if g.head > idx {
			g.head--
		}
		if g.tail > idx {
			g.tail--
		} else if g.tail == len(g.ring) {
			g.tail = 0
		}
		if g.head == len(g.ring) {
			g.head = 0
		}
	}
	return n
}

// size returns the generation's current capacity in blocks.
func (g *generation) size() int { return len(g.ring) }

// ageBuckets x ageBucket covers residence times up to 16 s, beyond every
// lifetime in the paper's workloads; older deaths land in the last bucket.
const (
	ageBuckets = 65
	ageBucket  = 250 * sim.Millisecond
)

// noteAge records the residence time of a record that just became garbage.
func (g *generation) noteAge(age sim.Time) {
	b := int(age / ageBucket)
	if b >= ageBuckets {
		b = ageBuckets - 1
	}
	if b < 0 {
		b = 0
	}
	g.epochAges[b]++
}

// ageQuantile returns the q-quantile of this epoch's garbage ages (upper
// bucket edge), and the sample count.
func (g *generation) ageQuantile(q float64) (sim.Time, uint64) {
	var total uint64
	for _, n := range g.epochAges {
		total += uint64(n)
	}
	if total == 0 {
		return 0, 0
	}
	// Nearest-rank: the ceil(q*total)-th smallest sample.
	want := uint64(float64(total) * q)
	if float64(want) < float64(total)*q {
		want++
	}
	if want < 1 {
		want = 1
	}
	if want > total {
		want = total
	}
	var seen uint64
	for b, n := range g.epochAges {
		seen += uint64(n)
		if seen >= want {
			return sim.Time(b+1) * ageBucket, total
		}
	}
	return sim.Time(ageBuckets) * ageBucket, total
}
