package core

import (
	"testing"

	"ellog/internal/blockdev"
	"ellog/internal/flushdisk"
	"ellog/internal/logrec"
	"ellog/internal/sim"
	"ellog/internal/statedb"
	"ellog/internal/trace"
)

// txPath drives the steady-state transaction path of a manager on the
// paper's substrate (15 ms log writes, 10 flush drives at 25 ms): one call
// is one transaction — BEGIN, two 100-byte updates, COMMIT — followed by
// the 10 ms to the next arrival at 100 TPS, in which the blocks of earlier
// transactions become durable, their updates flush and their LTT entries
// retire. The updates cycle through a fixed set of objects, so once warm
// the stable database, like everything else, has nothing left to grow.
// The manager's clock is the engine seen through a countingClock; the
// device and the flush array use the engine directly.
type txPath struct {
	s     *Setup
	clk   *countingClock
	next  logrec.TxID
	acked int
	onAck func()
}

// countingClock is the engine as the manager sees it, counting what the
// manager asks of it: clock reads, and timers armed.
type countingClock struct {
	*sim.Engine
	reads, timers int
}

func (c *countingClock) Now() sim.Time { c.reads++; return c.Engine.Now() }

func (c *countingClock) At(t sim.Time, fn sim.Handler) sim.EventID {
	c.timers++
	return c.Engine.At(t, fn)
}

func (c *countingClock) After(d sim.Time, fn sim.Handler) sim.EventID {
	c.timers++
	return c.Engine.After(d, fn)
}

const txPathObjects = 4096

func newTxPath(tb testing.TB, p Params) *txPath {
	tb.Helper()
	eng := sim.NewEngine(11, 13)
	clk := &countingClock{Engine: eng}
	dev := blockdev.New(eng, p.WithDefaults().WriteLatency)
	var m *Manager
	flush := flushdisk.New(eng, 10, 25*sim.Millisecond, 1_000_000, func(req flushdisk.Request) { m.Flushed(req) })
	m, err := New(clk, p, dev, flush, statedb.New())
	if err != nil {
		tb.Fatal(err)
	}
	x := &txPath{s: &Setup{Eng: eng, Dev: dev, Flush: flush, DB: m.DB(), LM: m}, clk: clk}
	x.onAck = func() { x.acked++ }
	// Warm up: every object written once, every free list, buffer and
	// backing array at its steady size.
	for i := 0; i < 2*txPathObjects; i++ {
		x.one()
	}
	return x
}

// txPathOID deals the i-th object of the working set to drive i mod 10.
func txPathOID(i uint64) logrec.OID { return logrec.OID(i%10*100_000 + i/10) }

func (x *txPath) one() { x.burst(1) }

// burst issues k transactions back to back, so that their COMMITs share
// blocks, and then lets the k arrival gaps of 10 ms pass.
func (x *txPath) burst(k int) {
	m := x.s.LM
	for j := 0; j < k; j++ {
		x.next++
		tid := x.next
		i := 2 * uint64(tid) % txPathObjects
		m.Begin(tid)
		m.WriteData(tid, txPathOID(i), 100)
		m.WriteData(tid, txPathOID(i+1), 100)
		m.Commit(tid, x.onAck)
	}
	x.s.Eng.Run(x.s.Eng.Now() + sim.Time(k)*10*sim.Millisecond)
}

// drained checks that the path really is the whole life of a transaction:
// after a quiesce every one of them was acknowledged, flushed and retired,
// and nothing in use was recycled under it.
func (x *txPath) drained(tb testing.TB) {
	tb.Helper()
	m := x.s.LM
	if err := m.CheckInvariants(); err != nil {
		tb.Fatalf("invariant violated in steady state: %v", err)
	}
	m.Quiesce()
	x.s.Eng.Run(x.s.Eng.Now() + sim.Second)
	st := m.Stats()
	if uint64(x.acked) != uint64(x.next) || st.Commits != uint64(x.next) || st.Insufficient() {
		tb.Fatalf("%d transactions, %d acknowledged, %d committed, insufficient=%v", x.next, x.acked, st.Commits, st.Insufficient())
	}
	if st.LTTEntries != 0 || st.LOTEntries != 0 || st.Flush.Flushes != 2*uint64(x.next) {
		tb.Fatalf("after the drain: %d LTT entries, %d LOT entries, %d flushes for %d updates",
			st.LTTEntries, st.LOTEntries, st.Flush.Flushes, 2*x.next)
	}
	if err := m.CheckInvariants(); err != nil {
		tb.Fatalf("invariant violated after the drain: %v", err)
	}
}

var txPathModes = []struct {
	name string
	p    Params
}{
	{"EL", Params{Mode: ModeEphemeral, GenSizes: []int{18, 16}, Recirculate: true}},
	{"FW", Params{Mode: ModeFirewall, GenSizes: []int{64}}},
	{"hybrid", Params{Mode: ModeHybrid, GenSizes: []int{18, 16}, Recirculate: true}},
	// Real mode's group-commit timeout: at 100 TPS it seals every block.
	{"EL+timeout", Params{Mode: ModeEphemeral, GenSizes: []int{18, 16}, Recirculate: true, GroupCommitTimeout: 5 * sim.Millisecond}},
}

// TestTxPathAllocBudget: a transaction in steady state allocates nothing in
// the manager, the log device, the flush array or the engine — the budget
// is 0 allocations, and it is met.
func TestTxPathAllocBudget(t *testing.T) {
	for _, mode := range txPathModes {
		t.Run(mode.name, func(t *testing.T) {
			x := newTxPath(t, mode.p)
			if got := testing.AllocsPerRun(2000, x.one); got != 0 {
				t.Errorf("%v allocations per transaction, budget 0", got)
			}
			x.drained(t)
		})
	}
}

// TestTxPathClockBudget pins what the manager asks of its clock. It reads
// it once per call into the manager: a steady-state transaction makes six —
// Begin, two WriteData, Commit and its two updates' flush completions — and
// each block written adds its completion and, when the group-commit
// timeout sealed it, the timer's. It arms at most one group-commit timer
// per block, also when the COMMITs of eight transactions share one.
func TestTxPathClockBudget(t *testing.T) {
	const n = 2000
	for _, mode := range txPathModes {
		t.Run(mode.name, func(t *testing.T) {
			x := newTxPath(t, mode.p)
			m := x.s.LM
			// Stats reads the clock too: take the counts after it.
			st0 := m.Stats()
			reads0, timers0 := x.clk.reads, x.clk.timers
			for i := 0; i < n; i++ {
				x.one()
			}
			reads, timers := x.clk.reads-reads0, x.clk.timers-timers0
			st := m.Stats()
			blocks := st.TotalWrites - st0.TotalWrites
			flushes := st.Flush.Flushes + st.Flush.Forced - st0.Flush.Flushes - st0.Flush.Forced
			if calls := 4*n + int(flushes+blocks) + timers; reads > calls {
				t.Errorf("%d clock reads for %d calls into the manager (%d transactions, %d flush completions, %d blocks, %d timers)",
					reads, calls, n, flushes, blocks, timers)
			}
			t.Logf("%.3f clock reads per transaction", float64(reads)/n)

			// Bursts of eight keep 100 TPS on average.
			st0, timers0 = m.Stats(), x.clk.timers
			for i := 0; i < n/8; i++ {
				x.burst(8)
			}
			timers = x.clk.timers - timers0
			blocks = m.Stats().TotalWrites - st0.TotalWrites
			if timers > int(blocks) {
				t.Errorf("%d group-commit timers armed for %d blocks, want one per block at most", timers, blocks)
			}
			x.drained(t)
		})
	}
}

// steppingClock moves on by a microsecond at every read, ahead of the engine
// it schedules on, so no two readings agree.
type steppingClock struct {
	*sim.Engine
	reads sim.Time
}

func (c *steppingClock) Now() sim.Time { c.reads++; return c.Engine.Now() + c.reads }

// stampDev notes the creation time of every record written to it.
type stampDev struct {
	*blockdev.Device
	stamps map[logrec.LSN]sim.Time
}

func (d *stampDev) Write(id blockdev.BlockID, data []byte, done func(err error)) {
	recs, err := logrec.DecodeBlock(data)
	if err != nil {
		panic(err)
	}
	for _, r := range recs {
		d.stamps[r.LSN] = r.Time
	}
	d.Device.Write(id, data, done)
}

// TestCallStampsItsFirstReading: a record carries the first clock reading
// of the call that logged it. The clock moves on at every read, so a stamp
// from a later read within the call, or from a reading an earlier call left
// behind, names the wrong read. Eight closed-loop clients begin each
// transaction from the acknowledgement of the one before, a call nested in
// the block completion that delivers it — which must go on with its own
// reading afterwards: every commit it acknowledges is traced at the instant
// the block became durable.
func TestCallStampsItsFirstReading(t *testing.T) {
	eng := sim.NewEngine(3, 5)
	clk := &steppingClock{Engine: eng}
	dev := &stampDev{Device: blockdev.New(eng, 15*sim.Millisecond), stamps: map[logrec.LSN]sim.Time{}}
	var m *Manager
	flush := flushdisk.New(eng, 4, 5*sim.Millisecond, 1000, func(req flushdisk.Request) { m.Flushed(req) })
	m, err := New(clk, Params{Mode: ModeEphemeral, GenSizes: []int{16, 16}, Recirculate: true, GroupCommitTimeout: 5 * sim.Millisecond},
		dev, flush, statedb.New())
	if err != nil {
		t.Fatal(err)
	}
	var durableAt sim.Time
	m.SetTracer(trace.Func(func(e trace.Event) {
		switch e.Kind {
		case trace.EvDurable:
			durableAt = e.At
		case trace.EvCommit:
			if e.At != durableAt {
				t.Errorf("commit of %d traced at %v, its block durable at %v", e.Tx, e.At, durableAt)
			}
		}
	}))
	want := map[logrec.LSN]sim.Time{}
	// logged makes a call that logs one record, which must carry the
	// clock's next reading.
	logged := func(call func()) {
		first := eng.Now() + clk.reads + 1
		call()
		want[m.nextLSN] = first
	}
	const horizon = 500 * sim.Millisecond
	var next logrec.TxID
	var client func()
	client = func() {
		if eng.Now() >= horizon {
			return
		}
		next++
		tid := next
		logged(func() { m.Begin(tid) })
		eng.After(sim.Millisecond, func() { logged(func() { m.WriteData(tid, logrec.OID(tid%500), 100) }) })
		eng.After(2*sim.Millisecond, func() { logged(func() { m.Commit(tid, client) }) })
	}
	for i := 0; i < 8; i++ {
		client()
	}
	eng.Run(horizon)
	m.Quiesce()
	eng.Run(horizon + sim.Second)
	if st := m.Stats(); st.Commits < 100 || st.Insufficient() {
		t.Fatalf("%d commits, insufficient=%v", st.Commits, st.Insufficient())
	}
	for lsn, at := range want {
		if got, ok := dev.stamps[lsn]; !ok || got != at {
			t.Errorf("record %d stamped %v (written: %v), want %v", lsn, got, ok, at)
		}
	}
	assertInv(t, m)
}

// BenchmarkTxPath prices one transaction's whole life in the manager and
// its substrate: ns/op is ns per transaction, and with -benchmem B/op and
// allocs/op are bytes and allocations per transaction.
func BenchmarkTxPath(b *testing.B) {
	for _, mode := range txPathModes {
		b.Run(mode.name, func(b *testing.B) {
			x := newTxPath(b, mode.p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.one()
			}
			b.StopTimer()
			x.drained(b)
		})
	}
}
