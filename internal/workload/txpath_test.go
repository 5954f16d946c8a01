package workload

import (
	"testing"

	"ellog/internal/logrec"
	"ellog/internal/sim"
)

// ackLM is the cheapest possible log manager: it hands out LSNs and
// acknowledges every COMMIT on the spot, allocating nothing, so what
// AllocsPerRun sees is the generator alone.
type ackLM struct{ lsn logrec.LSN }

func (l *ackLM) BeginHinted(logrec.TxID, sim.Time) {}
func (l *ackLM) WriteData(logrec.TxID, logrec.OID, int) logrec.LSN {
	l.lsn++
	return l.lsn
}
func (l *ackLM) Commit(_ logrec.TxID, onDurable func()) { onDurable() }
func (l *ackLM) SetKillHandler(func(logrec.TxID))       {}

// genPath runs the paper mix at 100 TPS; one call advances the engine by one
// arrival interval, in which one transaction starts and, once the pipeline
// is full, one finishes. The object space is small enough for the oracle to
// hold every object after the warm-up, so nothing is left to grow but the
// latency samples and one byte of fate per transaction.
type genPath struct {
	eng *sim.Engine
	g   *Generator
}

func newGenPath(tb testing.TB) *genPath {
	tb.Helper()
	eng := sim.NewEngine(5, 7)
	g, err := New(eng, &ackLM{}, Config{
		Mix: PaperMix(0.05), ArrivalRate: 100, Runtime: 1 << 40, NumObjects: 2000,
	})
	if err != nil {
		tb.Fatal(err)
	}
	g.Start()
	x := &genPath{eng: eng, g: g}
	for i := 0; i < 20_000; i++ {
		x.one()
	}
	return x
}

func (x *genPath) one() { x.eng.Run(x.eng.Now() + 10*sim.Millisecond) }

// TestTxPathAllocBudget: a generator transaction in steady state — BEGIN,
// its data records, COMMIT, acknowledgement — allocates nothing: its run,
// the three event handlers and the list of its writes are recycled.
func TestTxPathAllocBudget(t *testing.T) {
	x := newGenPath(t)
	if got := testing.AllocsPerRun(2000, x.one); got != 0 {
		t.Errorf("%v allocations per transaction, budget 0", got)
	}
	before := x.g.Committed()
	for i := 0; i < 2000; i++ {
		x.one()
	}
	// As many finish as start, give or take the mix's draw of lifetimes.
	if done := x.g.Committed() - before; done < 1900 || done > 2100 || x.g.Killed() != 0 {
		t.Fatalf("%d committed and %d killed in 2000 arrival intervals: not the steady state", done, x.g.Killed())
	}
}

// BenchmarkTxPath prices one generator transaction: ns/op, and with
// -benchmem B/op and allocs/op, are per transaction.
func BenchmarkTxPath(b *testing.B) {
	x := newGenPath(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.one()
	}
}
