package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Handler is a callback invoked when an event fires. The current simulated
// time is available through Engine.Now.
type Handler func()

// EventID identifies a scheduled event so that it can be cancelled.
// The zero EventID is never issued.
//
// An EventID packs the event's slab index (low 32 bits, offset by one so
// index 0 still yields a nonzero id) with the slot's generation tag (high
// 32 bits). A slot's generation is bumped every time the slot is reissued,
// so an id kept past its event's firing or cancellation can never alias a
// later event that happens to reuse the same slot: Cancel on a stale id is
// a constant-time miss, not a misfire. (A single slot would have to be
// reused 2^32 times between a Cancel and its original schedule for a tag
// to wrap into a false positive — beyond any simulation this repo runs.)
type EventID uint64

// event is one slab slot. Slots are reused through a LIFO free list rather
// than a sync.Pool: the pool's per-P caches would make slot assignment — and
// with it EventID values — scheduling-dependent, while the free list keeps
// the engine bit-for-bit deterministic for a given seed.
type event struct {
	at   Time
	seq  uint64 // tie-break: FIFO among simultaneous events, for determinism
	fn   Handler
	gen  uint32 // generation tag; bumped on every (re)allocation of the slot
	heap int32  // index in the heap, -1 when the slot is not pending
}

// Engine is a discrete-event simulation engine. It is not safe for
// concurrent use; the whole simulation is single-threaded, exactly like the
// paper's C simulator, which makes runs bit-for-bit reproducible for a given
// seed.
//
// Events live in an index-based arena: the slab holds the event records,
// the heap orders slab indices by (time, seq), and the free list recycles
// retired slots. Steady-state scheduling therefore performs zero heap
// allocations — the only growth is the slab and heap backing arrays, which
// amortize to nothing once the engine has seen its peak pending-event count.
type Engine struct {
	now     Time
	slab    []event
	heap    []int32 // slab indices ordered by (at, seq)
	free    []int32 // retired slot indices, reused LIFO
	nextSeq uint64
	rng     *rand.Rand
	fired   uint64
	stopped bool
}

// NewEngine returns an engine whose clock starts at 0 and whose random
// number generator is seeded with the two given words (PCG).
func NewEngine(seed1, seed2 uint64) *Engine {
	return &Engine{rng: rand.New(rand.NewPCG(seed1, seed2))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random number generator.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fired reports how many events have been dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are currently scheduled.
func (e *Engine) Pending() int { return len(e.heap) }

// alloc takes a slot off the free list (or grows the slab), stamps a fresh
// generation, and returns its index.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	if len(e.slab) >= math.MaxUint32 {
		panic("sim: event arena exhausted")
	}
	e.slab = append(e.slab, event{})
	return int32(len(e.slab) - 1)
}

// release retires a slot: it drops the handler reference (so the arena
// never pins caller closures) and pushes the index for LIFO reuse. The
// generation tag is left in place — lookup rejects retired slots via
// heap == -1 until the slot is reissued, at which point the bumped tag
// rejects all ids from the slot's previous life.
func (e *Engine) release(idx int32) {
	e.slab[idx].fn = nil
	e.free = append(e.free, idx)
}

// lookup resolves an EventID to its slab index, or -1 if the event already
// fired, was cancelled, or the id is from a recycled slot's earlier life.
func (e *Engine) lookup(id EventID) int32 {
	slot := int64(uint32(id)) - 1
	if slot < 0 || slot >= int64(len(e.slab)) {
		return -1
	}
	ev := &e.slab[slot]
	if ev.gen != uint32(id>>32) || ev.heap < 0 {
		return -1
	}
	return int32(slot)
}

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error and panics: the model must never travel backwards.
func (e *Engine) At(t Time, fn Handler) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	idx := e.alloc()
	ev := &e.slab[idx]
	e.nextSeq++
	ev.at = t
	ev.seq = e.nextSeq
	ev.fn = fn
	ev.gen++
	ev.heap = int32(len(e.heap))
	e.heap = append(e.heap, idx)
	e.up(int(ev.heap))
	return EventID(uint64(ev.gen)<<32 | uint64(idx+1))
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn Handler) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a scheduled event. It reports whether the event was still
// pending (false if it already fired or was cancelled before).
func (e *Engine) Cancel(id EventID) bool {
	idx := e.lookup(id)
	if idx < 0 {
		return false
	}
	e.removeHeap(idx)
	e.release(idx)
	return true
}

// Stop makes Run return after the event currently being dispatched.
func (e *Engine) Stop() { e.stopped = true }

// dispatch pops the minimum event, retires its slot, advances the clock,
// and invokes the handler. The slot is retired before the handler runs, so
// a handler cancelling its own id sees false, and a slot reused by a
// handler's own scheduling gets a fresh generation tag.
func (e *Engine) dispatch() {
	idx := e.heap[0]
	at, fn := e.slab[idx].at, e.slab[idx].fn
	e.popHeap()
	e.release(idx)
	e.now = at
	e.fired++
	fn()
}

// Run dispatches events in timestamp order (FIFO among equal timestamps)
// until the queue empties or the next event would fire strictly after the
// until time. The clock is left at the later of the last fired event and
// until — unless Stop() fired mid-run, in which case the clock stays at
// the stopping event's time so crash-injection callers read a truthful
// crash time instead of the run's nominal horizon.
func (e *Engine) Run(until Time) {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		if e.slab[e.heap[0]].at > until {
			break
		}
		e.dispatch()
	}
	if !e.stopped && e.now < until {
		e.now = until
	}
}

// NextAt reports the timestamp of the earliest pending event, if any. The
// parallel engine's window loop uses it to skip empty time buckets.
func (e *Engine) NextAt() (Time, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.slab[e.heap[0]].at, true
}

// Step dispatches exactly one event, if any is pending, and reports whether
// one fired. Useful in tests that need to observe intermediate states.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	e.dispatch()
	return true
}

// --- binary heap of slab indices ordered by (at, seq) -----------------

func (e *Engine) less(i, j int) bool {
	a, b := &e.slab[e.heap[i]], &e.slab[e.heap[j]]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) swap(i, j int) {
	e.heap[i], e.heap[j] = e.heap[j], e.heap[i]
	e.slab[e.heap[i]].heap = int32(i)
	e.slab[e.heap[j]].heap = int32(j)
}

// popHeap removes the minimum element and marks its slot off-heap.
func (e *Engine) popHeap() {
	idx := e.heap[0]
	last := len(e.heap) - 1
	e.swap(0, last)
	e.heap = e.heap[:last]
	if last > 0 {
		e.down(0)
	}
	e.slab[idx].heap = -1
}

// removeHeap deletes an arbitrary pending slot from the heap.
func (e *Engine) removeHeap(idx int32) {
	i := int(e.slab[idx].heap)
	if i < 0 {
		return
	}
	last := len(e.heap) - 1
	e.swap(i, last)
	e.heap = e.heap[:last]
	if i < last {
		e.down(i)
		e.up(i)
	}
	e.slab[idx].heap = -1
}

func (e *Engine) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.swap(i, parent)
		i = parent
	}
}

func (e *Engine) down(i int) {
	n := len(e.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && e.less(l, small) {
			small = l
		}
		if r < n && e.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		e.swap(i, small)
		i = small
	}
}
