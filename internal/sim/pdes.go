// Parallel discrete-event simulation with conservative synchronization.
//
// A ParallelEngine partitions one simulation into logical processes (LPs),
// each owning a full arena Engine — its own event slab, heap, sequence
// counter and RNG stream. Simulated time is divided into fixed buckets of
// the configured lookahead width; within a bucket every LP dispatches its
// own events in turn, in LP-index order, and at the bucket barrier all
// cross-LP events produced during the bucket are merged in (timestamp,
// source LP index, send sequence) order and scheduled into their
// destination LPs. Everything runs on the calling goroutine: the
// decomposition fixes the event order, and parallelism lives across runs
// (runner.Pool), not within one.
//
// The conservative guarantee is the classic one (Chandy/Misra/Bryant): a
// cross-LP event may not fire earlier than lookahead after its send time,
// so every event an LP could receive during bucket k is already in its
// queue when bucket k starts — no LP ever dispatches an event out of
// timestamp order, and no rollback machinery is needed. The physical
// latencies of the model (the 15 ms tau_DiskWrite, the 25/45 ms flush
// transfers) dwarf typical PDES lookahead, which is what makes this
// natural here.
//
// LPs share no state during a bucket (a model obligation — each LP's
// handlers may touch only that LP's components), so a single-LP
// ParallelEngine reduces exactly to the plain Engine (same seeds, same
// dispatch order).
package sim

import "fmt"

// LP is one logical process of a parallel simulation. It embeds a full
// Engine: model components attach to an LP exactly as they would to a
// standalone engine, and everything they schedule stays LP-local. The only
// cross-LP channel is Send.
type LP struct {
	*Engine
	idx     int
	pe      *ParallelEngine
	outbox  []xevent
	sendSeq uint64
}

// Index reports the LP's position in its parallel engine.
func (lp *LP) Index() int { return lp.idx }

// Send schedules fn on the destination LP, delay after the current time.
// The delay must be at least the engine's lookahead — that is the
// conservative contract that lets buckets run without intra-bucket
// communication. The event is buffered in the sender's outbox and merged
// into the destination at the next bucket barrier; among cross-LP events
// with equal timestamps, delivery (and thus dispatch) order is by source
// LP index, then by send order within the source.
func (lp *LP) Send(dst int, delay Time, fn Handler) {
	if dst < 0 || dst >= len(lp.pe.lps) {
		panic(fmt.Sprintf("sim: Send to LP %d out of range (engine has %d)", dst, len(lp.pe.lps)))
	}
	if delay < lp.pe.lookahead {
		panic(fmt.Sprintf("sim: cross-LP send with delay %v below lookahead %v", delay, lp.pe.lookahead))
	}
	lp.sendSeq++
	lp.outbox = append(lp.outbox, xevent{
		at:  lp.Now() + delay,
		dst: int32(dst),
		seq: lp.sendSeq,
		fn:  fn,
	})
}

// xevent is one buffered cross-LP event. The source LP index is implicit
// in which outbox holds it until the barrier gathers them.
type xevent struct {
	at  Time
	src int32
	dst int32
	seq uint64
	fn  Handler
}

// ParallelEngine runs one simulation decomposed into LPs under
// conservative synchronization, on the goroutine that calls Run.
type ParallelEngine struct {
	lps       []*LP
	lookahead Time
	cursor    Time // next unprocessed instant (start of the next window)

	// merge scratch, reused across barriers
	inbox []xevent

	windows   uint64 // buckets actually executed (empty buckets are skipped)
	delivered uint64 // cross-LP events merged at barriers
}

// NewParallelEngine builds an engine of n LPs with the given lookahead.
// LP 0 is seeded with exactly the two given words — so a 1-LP parallel
// engine is bit-for-bit the sequential NewEngine(seed1, seed2) — and every
// further LP derives its own independent stream from (seed1, seed2, index)
// via splitmix64.
func NewParallelEngine(seed1, seed2 uint64, n int, lookahead Time) *ParallelEngine {
	if n <= 0 {
		panic(fmt.Sprintf("sim: parallel engine needs at least one LP, got %d", n))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: parallel engine needs positive lookahead, got %v", lookahead))
	}
	pe := &ParallelEngine{lookahead: lookahead}
	for i := 0; i < n; i++ {
		s1, s2 := seed1, seed2
		if i > 0 {
			s1 = splitmix64(seed1 + uint64(i)*0x9e3779b97f4a7c15)
			s2 = splitmix64(seed2 ^ s1)
		}
		pe.lps = append(pe.lps, &LP{Engine: NewEngine(s1, s2), idx: i, pe: pe})
	}
	return pe
}

// splitmix64 is the standard 64-bit mixer, used to derive per-LP seed
// streams that are independent of each other and of the LP-0 stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NumLPs reports the LP count.
func (pe *ParallelEngine) NumLPs() int { return len(pe.lps) }

// LP returns the i-th logical process.
func (pe *ParallelEngine) LP(i int) *LP {
	if i < 0 || i >= len(pe.lps) {
		panic(fmt.Sprintf("sim: LP %d out of range (engine has %d)", i, len(pe.lps)))
	}
	return pe.lps[i]
}

// Lookahead reports the conservative window width.
func (pe *ParallelEngine) Lookahead() Time { return pe.lookahead }

// Windows reports how many non-empty time buckets have executed.
func (pe *ParallelEngine) Windows() uint64 { return pe.windows }

// Delivered reports how many cross-LP events have been merged at barriers.
func (pe *ParallelEngine) Delivered() uint64 { return pe.delivered }

// Fired sums the events dispatched across all LPs. Call only between Run
// calls (it reads every LP).
func (pe *ParallelEngine) Fired() uint64 {
	var n uint64
	for _, lp := range pe.lps {
		n += lp.Engine.Fired()
	}
	return n
}

// nextEventAt scans every LP for the earliest pending event, at barriers.
func (pe *ParallelEngine) nextEventAt() (Time, bool) {
	var best Time
	found := false
	for _, lp := range pe.lps {
		if at, ok := lp.Engine.NextAt(); ok && (!found || at < best) {
			best, found = at, true
		}
	}
	return best, found
}

// bucketEnd returns the exclusive end of the fixed-grid bucket containing
// t: buckets are [k*L, (k+1)*L) for k = 0, 1, ...
func (pe *ParallelEngine) bucketEnd(t Time) Time {
	return (t/pe.lookahead + 1) * pe.lookahead
}

// Run advances the whole simulation through time until (inclusive), like
// Engine.Run: every event with timestamp <= until fires, in each LP's
// (time, seq) order, and every LP's clock ends at until. Buckets with no
// pending events anywhere are skipped without a barrier. Within a bucket
// the LPs run in index order; since they share no state, that order is
// unobservable. Cross-LP events
// whose timestamps land beyond until stay queued for a later Run.
func (pe *ParallelEngine) Run(until Time) {
	for pe.cursor <= until {
		next, ok := pe.nextEventAt()
		if !ok || next > until {
			break
		}
		if next > pe.cursor {
			pe.cursor = next // skip empty buckets: nothing fires, nothing is sent
		}
		capT := pe.bucketEnd(pe.cursor) - 1
		if capT > until {
			capT = until
		}
		for _, lp := range pe.lps {
			lp.Engine.Run(capT)
		}
		pe.deliver()
		pe.windows++
		pe.cursor = capT + 1
	}
	// Mirror Engine.Run's trailing clock move: no events <= until remain
	// (delivered events always land at or after the sending bucket's end),
	// so this only positions every LP's clock at the horizon.
	for _, lp := range pe.lps {
		lp.Engine.Run(until)
	}
	if pe.cursor < until+1 {
		pe.cursor = until + 1
	}
}

// deliver runs at the bucket barrier: it gathers every LP's outbox, orders
// the union by (timestamp, source LP, send sequence) — a total order
// independent of the order the LPs ran in — and schedules each
// event into its destination LP. Destination sequence numbers are assigned
// in that same order, so cross-LP events with equal timestamps dispatch
// deterministically: source LP index breaks the tie, then send order.
func (pe *ParallelEngine) deliver() {
	pe.inbox = pe.inbox[:0]
	for _, lp := range pe.lps {
		for _, x := range lp.outbox {
			x.src = int32(lp.idx)
			pe.inbox = append(pe.inbox, x)
		}
		lp.outbox = lp.outbox[:0]
	}
	if len(pe.inbox) == 0 {
		return
	}
	sortXevents(pe.inbox)
	for _, x := range pe.inbox {
		dst := pe.lps[x.dst]
		dst.Engine.At(x.at, x.fn)
		pe.delivered++
	}
	// Handlers must not linger in the scratch buffer past the barrier.
	for i := range pe.inbox {
		pe.inbox[i].fn = nil
	}
}

// sortXevents orders cross-LP events by (at, src, seq). Insertion sort:
// barriers see small batches (events produced in one lookahead window),
// and the gathered input is already sorted by (src, seq), so runs are
// nearly ordered.
func sortXevents(xs []xevent) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i - 1
		for j >= 0 && xeventAfter(xs[j], x) {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = x
	}
}

// xeventAfter reports whether a orders strictly after b in the barrier
// merge order (timestamp, then source LP index, then send sequence).
func xeventAfter(a, b xevent) bool {
	if a.at != b.at {
		return a.at > b.at
	}
	if a.src != b.src {
		return a.src > b.src
	}
	return a.seq > b.seq
}
