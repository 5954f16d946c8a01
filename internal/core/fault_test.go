package core

import (
	"testing"

	"ellog/internal/blockdev"
	"ellog/internal/logrec"
	"ellog/internal/sim"
	"ellog/internal/trace"
)

// scriptInjector fails the first Fails block writes it sees, then lets
// everything through clean.
type scriptInjector struct {
	Fails int
	seen  int
}

func (s *scriptInjector) BlockWriteFault(gen, size int) blockdev.WriteFault {
	s.seen++
	if s.seen <= s.Fails {
		return blockdev.WriteFault{Fail: true}
	}
	return blockdev.WriteFault{}
}

func faultyParams() Params {
	return Params{Mode: ModeEphemeral, GenSizes: []int{8}, Recirculate: true}.WithDefaults()
}

// A transient write failure within the retry budget delays the commit but
// does not lose it, and the failed attempt re-counts in the bandwidth stats.
func TestWriteRetryRecovers(t *testing.T) {
	s := testSetup(t, faultyParams())
	m := s.LM
	m.EnableFaultRetries(3, sim.Millisecond)
	ring := trace.NewRing(256)
	m.SetTracer(ring)
	s.Dev.SetInjector(&scriptInjector{Fails: 1})

	committed := false
	m.Begin(1)
	m.WriteData(1, 7, 100)
	m.Commit(1, func() { committed = true })
	m.Quiesce()
	s.Eng.Run(sim.Second)

	if !committed {
		t.Fatal("commit lost across a retried write")
	}
	st := m.Stats()
	if st.WriteErrors != 1 || st.WriteRetries != 1 || st.AbandonedWrites != 0 {
		t.Fatalf("errors=%d retries=%d abandoned=%d, want 1/1/0",
			st.WriteErrors, st.WriteRetries, st.AbandonedWrites)
	}
	if ring.Count(trace.EvRetry) != 1 {
		t.Fatalf("EvRetry count = %d, want 1", ring.Count(trace.EvRetry))
	}
	// The failed attempt still cost a disk write: attempts = durable + failed.
	dst := s.Dev.Stats()
	if dst.Failed != 1 || dst.Writes != ring.Count(trace.EvDurable)+1 {
		t.Fatalf("device writes=%d failed=%d durable=%d: failed attempt not re-counted",
			dst.Writes, dst.Failed, ring.Count(trace.EvDurable))
	}
	assertInv(t, m)
}

// Exhausting the retry budget abandons the block and kills the committing
// transaction aboard — the same contract as the kill-on-overflow path: an
// unacknowledged commit may die, an acknowledged one may not.
func TestExhaustedRetriesKillTransaction(t *testing.T) {
	s := testSetup(t, faultyParams())
	m := s.LM
	m.EnableFaultRetries(2, sim.Millisecond)
	var killed []logrec.TxID
	m.SetKillHandler(func(tid logrec.TxID) { killed = append(killed, tid) })
	s.Dev.SetInjector(&scriptInjector{Fails: 100}) // every attempt fails

	committed := false
	m.Begin(1)
	m.WriteData(1, 7, 100)
	m.Commit(1, func() { committed = true })
	m.Quiesce()
	s.Eng.Run(sim.Second)

	if committed {
		t.Fatal("commit acknowledged although its block never reached disk")
	}
	st := m.Stats()
	if st.Killed != 1 || len(killed) != 1 || killed[0] != 1 {
		t.Fatalf("killed=%d handler=%v, want tx 1 killed once", st.Killed, killed)
	}
	if st.WriteErrors != 3 || st.WriteRetries != 2 || st.AbandonedWrites != 1 {
		t.Fatalf("errors=%d retries=%d abandoned=%d, want 3/2/1",
			st.WriteErrors, st.WriteRetries, st.AbandonedWrites)
	}
	assertInv(t, m)
}

// A committed transaction whose already-acknowledged updates ride in an
// abandoned block (via forwarding) is not killed: its updates are force
// flushed so nothing depends on the dead block.
func TestAbandonForceFlushesCommitted(t *testing.T) {
	p := Params{Mode: ModeEphemeral, GenSizes: []int{4, 8}, Recirculate: true}.WithDefaults()
	s := testSetup(t, p)
	m := s.LM
	m.EnableFaultRetries(1, sim.Millisecond)

	// Commit a batch of transactions cleanly, then make every later block
	// write fail so forwarding into generation 1 abandons its blocks.
	// Abandons kill active transactions, so each commit is guarded: the
	// space-making cascade may kill the very transaction mid-script.
	killed := make(map[logrec.TxID]bool)
	m.SetKillHandler(func(tid logrec.TxID) { killed[tid] = true })
	acked := 0
	step := sim.Time(0)
	for i := 1; i <= 40; i++ {
		tid := logrec.TxID(i)
		s.Eng.At(step, func() {
			m.Begin(tid)
			if killed[tid] {
				return
			}
			m.WriteData(tid, logrec.OID(100+i%7), 400)
			if killed[tid] {
				return
			}
			m.Commit(tid, func() { acked++ })
		})
		step += 2 * sim.Millisecond
	}
	// Fail everything from 30 ms on: by then the earliest commits are
	// durable and acknowledged, and the workload keeps running for another
	// 50 ms, so head advancement forwards records into failing writes.
	s.Eng.At(30*sim.Millisecond, func() {
		s.Dev.SetInjector(&scriptInjector{Fails: 1 << 30})
	})
	s.Eng.Run(5 * sim.Second)

	st := m.Stats()
	if st.AbandonedWrites == 0 {
		t.Skip("no write was abandoned; scenario did not trigger forwarding under failure")
	}
	// No acknowledged commit may be lost: every commit acknowledged before
	// the failures is either flushed or still tracked — invariants verify
	// the bookkeeping; here we check no committed tx was killed.
	if st.Killed > st.Begins-st.Commits {
		t.Fatalf("killed=%d exceeds unacknowledged transactions %d",
			st.Killed, st.Begins-st.Commits)
	}
	if st.Flush.Forced == 0 {
		t.Fatal("abandoned blocks carried committed updates but nothing was force flushed")
	}
	assertInv(t, m)
}

// With retries enabled but no injector attached, the manager's observable
// behaviour is identical to the fault-free model: same stats, same trace.
func TestFaultsArmedButIdleIsIdentical(t *testing.T) {
	run := func(arm bool) (Stats, uint64) {
		s := testSetup(t, faultyParams())
		m := s.LM
		if arm {
			m.EnableFaultRetries(3, sim.Millisecond)
		}
		ring := trace.NewRing(64)
		m.SetTracer(ring)
		step := sim.Time(0)
		for i := 1; i <= 30; i++ {
			tid := logrec.TxID(i)
			s.Eng.At(step, func() {
				m.Begin(tid)
				m.WriteData(tid, logrec.OID(i%11), 300)
				m.Commit(tid, nil)
			})
			step += 3 * sim.Millisecond
		}
		s.Eng.Run(2 * sim.Second)
		return m.Stats(), ring.Total()
	}
	a, at := run(false)
	b, bt := run(true)
	if at != bt {
		t.Fatalf("trace totals differ: %d vs %d", at, bt)
	}
	if a.Commits != b.Commits || a.TotalWrites != b.TotalWrites ||
		a.Garbage != b.Garbage || a.Flush.Flushes != b.Flush.Flushes {
		t.Fatalf("armed-but-idle run diverged:\n%v\nvs\n%v", a, b)
	}
}

// genInjector fails every block write to one generation while armed.
type genInjector struct {
	gen   int
	armed bool
}

func (g *genInjector) BlockWriteFault(gen, size int) blockdev.WriteFault {
	return blockdev.WriteFault{Fail: g.armed && gen == g.gen}
}

// An abandoned block can carry records of a transaction whose COMMIT rides
// in another buffer. Its COMMIT will become durable, so those records are
// re-logged, not killed; and one that had been forwarded into the dead
// block keeps the block it came from sheltered until the re-logged copy
// is durable — that block holds the record's only durable copy, and
// releasing it early would let the tail overwrite it while the commit is
// acknowledged.
func TestAbandonRelogsCommittingAndKeepsOriginSheltered(t *testing.T) {
	s := testSetup(t, Params{Mode: ModeEphemeral, GenSizes: []int{4, 8}, BlockPayload: 100})
	m := s.LM
	m.EnableFaultRetries(1, sim.Millisecond)
	inj := &genInjector{gen: 1, armed: true}
	s.Dev.SetInjector(inj)
	var killed []logrec.TxID
	m.SetKillHandler(func(tid logrec.TxID) { killed = append(killed, tid) })

	// One-record blocks: each write seals the last, and generation 0 wraps
	// after a few, forwarding the transaction's durable records into
	// generation 1, whose writes all fail.
	m.Begin(1)
	origins := map[*cell]*slot{}
	for i := 0; m.Stats().Forwarded == 0; i++ {
		if i == 8 {
			t.Fatal("no record forwarded after 8 one-record blocks")
		}
		for c := m.mustTx(1).cells; c != nil; c = c.txNext {
			if c.gen == 0 && c.slot != nil && c.slot.state == slotDurable {
				origins[c] = c.slot
			}
		}
		m.WriteData(1, logrec.OID(10+i), 84)
		s.Eng.Run(s.Eng.Now() + 20*sim.Millisecond)
	}
	// The COMMIT lands in generation 0's open fill buffer and waits there;
	// the forward buffer's write fails twice and is abandoned meanwhile.
	acked := false
	m.Commit(1, func() { acked = true })
	s.Eng.Run(s.Eng.Now() + 100*sim.Millisecond)
	if st := m.Stats(); st.AbandonedWrites == 0 {
		t.Fatalf("the forward buffer was not abandoned: %+v", st)
	}
	if len(killed) != 0 || acked {
		t.Fatalf("killed %v, acked %v: want the committing transaction alive and unacknowledged", killed, acked)
	}
	relogged := 0
	for c := m.mustTx(1).cells; c != nil; c = c.txNext {
		o, moved := origins[c]
		if !moved || c.gen != 1 || c.buf == nil {
			continue
		}
		relogged++
		if o.refugees == 0 {
			t.Fatalf("origin slot %d of re-logged record %v released before the new copy is durable", o.id, c.rec)
		}
	}
	if relogged == 0 {
		t.Fatal("no forwarded record of the committing transaction was re-logged")
	}
	assertInv(t, m)

	// Once writes succeed again everything drains: the commit is
	// acknowledged and every shelter is released.
	inj.armed = false
	m.Quiesce()
	s.Eng.Run(s.Eng.Now() + 5*sim.Second)
	if !acked {
		t.Fatal("commit never acknowledged after the re-logged records became durable")
	}
	for _, o := range origins {
		if o.refugees != 0 {
			t.Fatalf("origin slot %d still shelters %d refugees after draining", o.id, o.refugees)
		}
	}
	assertInv(t, m)
}
