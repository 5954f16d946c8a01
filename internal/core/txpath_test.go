package core

import (
	"testing"

	"ellog/internal/logrec"
	"ellog/internal/sim"
)

// txPath drives the steady-state transaction path of a manager on the
// paper's substrate (15 ms log writes, 10 flush drives at 25 ms): one call
// is one transaction — BEGIN, two 100-byte updates, COMMIT — followed by
// the 10 ms to the next arrival at 100 TPS, in which the blocks of earlier
// transactions become durable, their updates flush and their LTT entries
// retire. The updates cycle through a fixed set of objects, so once warm
// the stable database, like everything else, has nothing left to grow.
type txPath struct {
	s     *Setup
	next  logrec.TxID
	acked int
	onAck func()
}

const txPathObjects = 4096

func newTxPath(tb testing.TB, p Params) *txPath {
	tb.Helper()
	s, err := NewSetup(sim.NewEngine(11, 13), p,
		FlushConfig{Drives: 10, Transfer: 25 * sim.Millisecond, NumObjects: 1_000_000})
	if err != nil {
		tb.Fatal(err)
	}
	x := &txPath{s: s}
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

func (x *txPath) one() {
	x.next++
	tid, m := x.next, x.s.LM
	i := 2 * uint64(tid) % txPathObjects
	m.Begin(tid)
	m.WriteData(tid, txPathOID(i), 100)
	m.WriteData(tid, txPathOID(i+1), 100)
	m.Commit(tid, x.onAck)
	x.s.Eng.Run(x.s.Eng.Now() + 10*sim.Millisecond)
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
