package core

import (
	"testing"

	"ellog/internal/logrec"
	"ellog/internal/sim"
	"ellog/internal/trace"
)

// testSetup builds a Manager on fresh substrate with a small object space
// and fast flush drive unless overridden.
func testSetup(t *testing.T, p Params, fc ...FlushConfig) *Setup {
	t.Helper()
	cfg := FlushConfig{Drives: 1, Transfer: 5 * sim.Millisecond, NumObjects: 1000}
	if len(fc) > 0 {
		cfg = fc[0]
	}
	s, err := NewSetup(sim.NewEngine(11, 13), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func assertInv(t *testing.T, m *Manager) {
	t.Helper()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariant violated: %v", err)
	}
}

func TestParamsValidate(t *testing.T) {
	base := Params{Mode: ModeEphemeral, GenSizes: []int{8, 8}}.WithDefaults()
	if err := base.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []Params{
		{Mode: ModeEphemeral},                                                             // no generations
		{Mode: ModeFirewall, GenSizes: []int{8, 8}},                                       // FW multi-gen
		{Mode: ModeFirewall, GenSizes: []int{8}, Recirculate: true},                       // FW recirc
		{Mode: ModeEphemeral, GenSizes: []int{2}},                                         // too small
		{Mode: ModeEphemeral, GenSizes: []int{8, 8}, HintBoundaries: make([]sim.Time, 3)}, // hint mismatch
	}
	for i, p := range bad {
		if err := p.WithDefaults().Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{Mode: ModeEphemeral, GenSizes: []int{8}}.WithDefaults()
	if p.BlockPayload != 2000 || p.BuffersPerGen != 4 || p.ThresholdK != 2 ||
		p.TxRecSize != 8 || p.WriteLatency != 15*sim.Millisecond {
		t.Fatalf("EL defaults wrong: %+v", p)
	}
	if p.MemPerTx != 40 || p.MemPerObj != 40 {
		t.Fatalf("EL memory model wrong: %d/%d", p.MemPerTx, p.MemPerObj)
	}
	f := Params{Mode: ModeFirewall, GenSizes: []int{8}}.WithDefaults()
	if f.MemPerTx != 22 || f.MemPerObj != 0 {
		t.Fatalf("FW memory model wrong: %d/%d", f.MemPerTx, f.MemPerObj)
	}
}

func TestModeString(t *testing.T) {
	if ModeEphemeral.String() != "EL" || ModeFirewall.String() != "FW" || ModeHybrid.String() != "hybrid" {
		t.Fatal("mode names wrong")
	}
}

func TestStartGenHints(t *testing.T) {
	p := Params{
		Mode:           ModeEphemeral,
		GenSizes:       []int{8, 8, 8},
		HintBoundaries: []sim.Time{2 * sim.Second, 20 * sim.Second},
	}
	cases := []struct {
		life sim.Time
		want int
	}{
		{0, 0}, {sim.Second, 0}, {2 * sim.Second, 0},
		{3 * sim.Second, 1}, {20 * sim.Second, 1}, {21 * sim.Second, 2},
	}
	for _, c := range cases {
		if got := p.startGen(c.life); got != c.want {
			t.Errorf("startGen(%v) = %d, want %d", c.life, got, c.want)
		}
	}
}

func TestCommitDurableViaGroupCommit(t *testing.T) {
	// Block payload 100: begin(8)+data(84)+commit(8) fills a buffer
	// exactly, but group commit writes only when the NEXT record fails to
	// fit, so durability waits for more traffic.
	s := testSetup(t, Params{
		Mode: ModeEphemeral, GenSizes: []int{8, 8},
		BlockPayload: 100,
	})
	m := s.LM
	durableAt := sim.Time(-1)
	m.Begin(1)
	m.WriteData(1, 42, 84)
	m.Commit(1, func() { durableAt = s.Eng.Now() })
	s.Eng.Run(sim.Second)
	if durableAt != -1 {
		t.Fatalf("commit durable at %v with group commit and no further traffic", durableAt)
	}
	// The next record does not fit (84 > 0 free), sealing the buffer.
	m.Begin(2)
	m.WriteData(2, 43, 84)
	start := s.Eng.Now()
	s.Eng.Run(start + 14*sim.Millisecond)
	if durableAt != -1 {
		t.Fatal("commit durable before tau_DiskWrite")
	}
	s.Eng.Run(start + 15*sim.Millisecond)
	if durableAt != start+15*sim.Millisecond {
		t.Fatalf("commit durable at %v, want %v", durableAt, start+15*sim.Millisecond)
	}
	assertInv(t, m)
}

func TestQuiesceMakesCommitDurable(t *testing.T) {
	s := testSetup(t, Params{Mode: ModeEphemeral, GenSizes: []int{8, 8}})
	m := s.LM
	done := false
	m.Begin(1)
	m.WriteData(1, 7, 100)
	m.Commit(1, func() { done = true })
	m.Quiesce()
	s.Eng.Run(sim.Second)
	if !done {
		t.Fatal("commit not durable after Quiesce")
	}
	assertInv(t, m)
}

func TestGroupCommitTimeout(t *testing.T) {
	s := testSetup(t, Params{
		Mode: ModeEphemeral, GenSizes: []int{8, 8},
		GroupCommitTimeout: 50 * sim.Millisecond,
	})
	m := s.LM
	durableAt := sim.Time(-1)
	m.Begin(1)
	m.WriteData(1, 7, 100)
	m.Commit(1, func() { durableAt = s.Eng.Now() })
	s.Eng.Run(sim.Second)
	want := 50*sim.Millisecond + 15*sim.Millisecond
	if durableAt != want {
		t.Fatalf("timeout commit durable at %v, want %v", durableAt, want)
	}
}

// TestGroupCommitTimeoutOnReusedBuffer: with writes much faster than the
// timeout, a pooled buffer is written, recycled and filling its next block
// while the timer of its first block is still pending. That stale timer
// must not seal the new block; the new block's own timer does.
func TestGroupCommitTimeoutOnReusedBuffer(t *testing.T) {
	// Block payload 100: BEGIN(8) + data(84) + COMMIT(8) fill a block, and
	// the next BEGIN seals it.
	s := testSetup(t, Params{
		Mode: ModeEphemeral, GenSizes: []int{8, 8},
		BlockPayload: 100, WriteLatency: sim.Millisecond,
		GroupCommitTimeout: 50 * sim.Millisecond,
	})
	m := s.LM
	durableAt := map[logrec.TxID]sim.Time{}
	ack := func(tid logrec.TxID) func() { return func() { durableAt[tid] = s.Eng.Now() } }
	m.Begin(1) // buffer A, whose timer is due at 50 ms
	m.WriteData(1, 1, 84)
	m.Commit(1, ack(1))
	m.Begin(2) // seals A and opens buffer B
	s.Eng.Run(2 * sim.Millisecond)
	m.WriteData(2, 2, 84)
	m.Commit(2, ack(2))
	m.Begin(3) // seals B and opens A again, recycled at 1 ms
	s.Eng.Run(4 * sim.Millisecond)
	m.Commit(3, ack(3)) // A's second block: its timer is due at 54 ms
	s.Eng.Run(sim.Second)
	want := map[logrec.TxID]sim.Time{1: sim.Millisecond, 2: 3 * sim.Millisecond, 3: 55 * sim.Millisecond}
	for tid, at := range want {
		if durableAt[tid] != at {
			t.Errorf("transaction %d durable at %v, want %v", tid, durableAt[tid], at)
		}
	}
	assertInv(t, m)
}

func TestFlushMakesRecordsGarbageAndRetiresTables(t *testing.T) {
	s := testSetup(t, Params{Mode: ModeEphemeral, GenSizes: []int{8, 8}})
	m := s.LM
	lsn := logrec.LSN(0)
	m.Begin(1)
	lsn = m.WriteData(1, 7, 100)
	m.Commit(1, nil)
	m.Quiesce()
	s.Eng.Run(sim.Second) // commit durable at 15ms, flush 5ms later
	if v, ok := m.DB().Get(7); !ok || v.LSN != lsn {
		t.Fatalf("stable DB missing flushed update: %+v %v", v, ok)
	}
	st := m.Stats()
	if st.LOTEntries != 0 || st.LTTEntries != 0 {
		t.Fatalf("tables not empty after flush: LOT=%d LTT=%d", st.LOTEntries, st.LTTEntries)
	}
	for i, g := range st.Gens {
		if g.Cells != 0 {
			t.Fatalf("gen %d still tracks %d cells", i, g.Cells)
		}
	}
	assertInv(t, m)
}

func TestReadOnlyTransactionRetiresAtCommit(t *testing.T) {
	s := testSetup(t, Params{Mode: ModeEphemeral, GenSizes: []int{8, 8}})
	m := s.LM
	m.Begin(1)
	m.Commit(1, nil)
	m.Quiesce()
	s.Eng.Run(sim.Second)
	if m.Stats().LTTEntries != 0 {
		t.Fatal("read-only transaction left an LTT entry")
	}
	assertInv(t, m)
}

func TestAbortDiscardsEverything(t *testing.T) {
	s := testSetup(t, Params{Mode: ModeEphemeral, GenSizes: []int{8, 8}})
	m := s.LM
	m.Begin(1)
	m.WriteData(1, 7, 100)
	m.WriteData(1, 8, 100)
	m.Abort(1)
	st := m.Stats()
	if st.LOTEntries != 0 || st.LTTEntries != 0 || st.Aborts != 1 {
		t.Fatalf("abort left state: %+v", st)
	}
	s.Eng.Run(sim.Second)
	if _, ok := m.DB().Get(7); ok {
		t.Fatal("aborted update reached the stable database")
	}
	assertInv(t, m)
}

func TestSameTxOverwriteSupersedes(t *testing.T) {
	s := testSetup(t, Params{Mode: ModeEphemeral, GenSizes: []int{8, 8}})
	m := s.LM
	m.Begin(1)
	first := m.WriteData(1, 7, 100)
	second := m.WriteData(1, 7, 100)
	if first == second {
		t.Fatal("LSNs not distinct")
	}
	assertInv(t, m)
	m.Commit(1, nil)
	m.Quiesce()
	s.Eng.Run(sim.Second)
	if v, _ := m.DB().Get(7); v.LSN != second {
		t.Fatalf("stable version %d, want the later update %d", v.LSN, second)
	}
	assertInv(t, m)
}

func TestCrossTxSupersession(t *testing.T) {
	// Slow flushing (10 s) so tx1's committed update is still unflushed
	// when tx2 commits a newer version of the same object.
	s := testSetup(t, Params{Mode: ModeEphemeral, GenSizes: []int{8, 8}},
		FlushConfig{Drives: 1, Transfer: 10 * sim.Second, NumObjects: 1000})
	m := s.LM
	m.Begin(1)
	m.WriteData(1, 7, 100)
	m.Commit(1, nil)
	m.Quiesce()
	s.Eng.Run(100 * sim.Millisecond) // tx1 durable; flush still running
	assertInv(t, m)
	if m.Stats().LTTEntries != 1 {
		t.Fatal("tx1 should still have an LTT entry (unflushed update)")
	}
	m.Begin(2)
	lsn2 := m.WriteData(2, 7, 100)
	m.Commit(2, nil)
	m.Quiesce()
	s.Eng.Run(200 * sim.Millisecond)
	assertInv(t, m)
	// tx1's update was superseded: its record is garbage and its LTT entry
	// retired; only tx2 remains.
	st := m.Stats()
	if st.LTTEntries != 1 || st.LOTEntries != 1 {
		t.Fatalf("after supersession: LOT=%d LTT=%d, want 1/1", st.LOTEntries, st.LTTEntries)
	}
	s.Eng.Run(25 * sim.Second) // let the flush finish
	if v, _ := m.DB().Get(7); v.LSN != lsn2 {
		t.Fatalf("stable version %d, want superseding update %d", v.LSN, lsn2)
	}
	if st := m.Stats(); st.LTTEntries != 0 || st.LOTEntries != 0 {
		t.Fatalf("tables not empty at the end: %+v", st)
	}
	assertInv(t, m)
}

// TestSeveralWritersOfOneObject: the paper's workload gives an object one
// active writer, but the LOT entry chains as many uncommitted updates as
// there are writers. Three transactions update object 7; the one in the
// middle of the chain aborts, another overwrites its own update, and the
// two survivors commit in turn.
func TestSeveralWritersOfOneObject(t *testing.T) {
	s := testSetup(t, Params{Mode: ModeEphemeral, GenSizes: []int{8, 8}})
	m := s.LM
	for tid := logrec.TxID(1); tid <= 3; tid++ {
		m.Begin(tid)
		m.WriteData(tid, 7, 100)
		m.WriteData(tid, logrec.OID(100+tid), 100)
		assertInv(t, m)
	}
	if st := m.Stats(); st.LOTEntries != 4 || st.LTTEntries != 3 {
		t.Fatalf("three writers of one object plus one private object each: LOT=%d LTT=%d, want 4/3", st.LOTEntries, st.LTTEntries)
	}
	m.Abort(2)
	assertInv(t, m)
	garbage := m.Stats().Garbage
	m.WriteData(3, 7, 100) // tx 3 overwrites its own update: one more garbage record
	if got := m.Stats().Garbage; got != garbage+1 {
		t.Fatalf("overwriting an own update made %d records garbage, want 1", got-garbage)
	}
	assertInv(t, m)
	m.Commit(1, nil)
	m.Quiesce()
	s.Eng.Run(s.Eng.Now() + 100*sim.Millisecond)
	assertInv(t, m)
	last := m.WriteData(3, 7, 100)
	m.Commit(3, nil)
	m.Quiesce()
	s.Eng.Run(s.Eng.Now() + sim.Second)
	assertInv(t, m)
	if v, _ := m.DB().Get(7); v.LSN != last {
		t.Fatalf("stable version of object 7 is %d, want the last committed update %d", v.LSN, last)
	}
	if st := m.Stats(); st.LOTEntries != 0 || st.LTTEntries != 0 || st.Commits != 2 || st.Aborts != 1 {
		t.Fatalf("at the end: %+v", st)
	}
}

func TestForwardingToSecondGeneration(t *testing.T) {
	// Tiny generation 0 with one-record blocks: a long-lived transaction's
	// records must be forwarded rather than lost or killed.
	s := testSetup(t, Params{
		Mode: ModeEphemeral, GenSizes: []int{4, 8},
		BlockPayload: 100,
	})
	m := s.LM
	m.Begin(1)
	for i := 0; i < 8; i++ {
		m.WriteData(1, logrec.OID(10+i), 84)
		s.Eng.Run(s.Eng.Now() + 20*sim.Millisecond)
		assertInv(t, m)
	}
	st := m.Stats()
	if st.Forwarded == 0 {
		t.Fatalf("no records forwarded: %+v", st)
	}
	if st.Killed != 0 {
		t.Fatalf("long transaction killed with ample gen-1 space: %+v", st)
	}
	if st.Gens[1].Cells == 0 {
		t.Fatal("generation 1 tracks no cells after forwarding")
	}
	if st.Gens[1].BlockWrites == 0 {
		t.Fatal("no block writes to generation 1")
	}
	// The transaction can still commit and flush out cleanly.
	m.Commit(1, nil)
	m.Quiesce()
	s.Eng.Run(s.Eng.Now() + 5*sim.Second)
	if st := m.Stats(); st.LOTEntries != 0 || st.LTTEntries != 0 {
		t.Fatalf("tables not empty after commit+flush: %+v", st)
	}
	assertInv(t, m)
}

// churn issues n short transactions, each writing one distinct object then
// committing, advancing time dt between them.
func churn(s *Setup, startTid logrec.TxID, n int, size int, dt sim.Time) {
	for i := 0; i < n; i++ {
		tid := startTid + logrec.TxID(i)
		s.LM.Begin(tid)
		s.LM.WriteData(tid, logrec.OID(100+i), size)
		s.LM.Commit(tid, nil)
		s.Eng.Run(s.Eng.Now() + dt)
	}
}

func TestRecirculationKeepsLongTransactionAlive(t *testing.T) {
	// The flush drive (25 ms) is slower than the commit rate (one per
	// 20 ms), so committed-but-unflushed records back up, get forwarded
	// into generation 1 and drive its head around the ring — recirculating
	// the long transaction's records instead of killing it.
	for _, mode := range []Mode{ModeEphemeral, ModeHybrid} {
		t.Run(mode.String(), func(t *testing.T) {
			s := testSetup(t, Params{
				Mode: mode, GenSizes: []int{4, 5},
				BlockPayload: 100, Recirculate: true,
			}, FlushConfig{Drives: 1, Transfer: 25 * sim.Millisecond, NumObjects: 1000})
			m := s.LM
			killed := false
			m.SetKillHandler(func(logrec.TxID) { killed = true })
			m.Begin(1)
			m.WriteData(1, 7, 84)
			// Push plenty of short-lived traffic through both generations; the
			// long transaction's record must recirculate in generation 1.
			churn(s, 100, 120, 84, 20*sim.Millisecond)
			st := m.Stats()
			if st.Recirculated == 0 {
				t.Fatalf("nothing recirculated: %+v", st)
			}
			if killed || st.Killed != 0 {
				t.Fatalf("long transaction killed despite recirculation: %+v", st)
			}
			assertInv(t, m)
			committed := false
			m.Commit(1, func() { committed = true })
			m.Quiesce()
			s.Eng.Run(s.Eng.Now() + 5*sim.Second)
			if !committed {
				t.Fatal("long transaction failed to commit")
			}
			if v, ok := m.DB().Get(7); !ok || v.Val == 0 {
				t.Fatalf("long transaction's update missing from DB: %+v %v", v, ok)
			}
			assertInv(t, m)
		})
	}
}

func TestRecirculationOffKillsLongTransaction(t *testing.T) {
	for _, mode := range []Mode{ModeEphemeral, ModeHybrid} {
		t.Run(mode.String(), func(t *testing.T) {
			s := testSetup(t, Params{
				Mode: mode, GenSizes: []int{4, 4},
				BlockPayload: 100, Recirculate: false,
			}, FlushConfig{Drives: 1, Transfer: 25 * sim.Millisecond, NumObjects: 1000})
			m := s.LM
			var killedTid logrec.TxID
			m.SetKillHandler(func(tid logrec.TxID) { killedTid = tid })
			m.Begin(1)
			m.WriteData(1, 7, 84)
			churn(s, 100, 120, 84, 20*sim.Millisecond)
			if killedTid != 1 {
				t.Fatalf("long transaction not killed (killed=%d); stats: %+v", killedTid, m.Stats())
			}
			if m.Stats().Killed != 1 {
				t.Fatalf("kill count %d, want 1", m.Stats().Killed)
			}
			assertInv(t, m)
		})
	}
}

// TestHybridRegeneratesLongTransaction: when the head of generation 0
// reaches a long transaction's oldest record, its BEGIN and both data
// records leave generation 0 together, at one instant, although the second
// update sits in a later block. The transaction survives the promotion and
// commits afterwards.
func TestHybridRegeneratesLongTransaction(t *testing.T) {
	s := testSetup(t, Params{
		Mode: ModeHybrid, GenSizes: []int{5, 8},
		BlockPayload: 100, GroupCommitTimeout: 100 * sim.Millisecond,
	})
	m := s.LM
	var moves []trace.Event
	m.SetTracer(trace.Func(func(e trace.Event) {
		if e.Kind == trace.EvMove && e.Tx == 1 && e.Gen == 0 {
			moves = append(moves, e)
		}
	}))
	killed := false
	m.SetKillHandler(func(tid logrec.TxID) { killed = killed || tid == 1 })
	m.Begin(1)
	m.WriteData(1, 7, 60)
	s.Eng.Run(50 * sim.Millisecond)
	m.WriteData(1, 8, 60) // does not fit beside BEGIN and the first update
	s.Eng.Run(100 * sim.Millisecond)
	churn(s, 100, 60, 84, 20*sim.Millisecond)
	if len(moves) != 3 || moves[0].At != moves[2].At {
		t.Fatalf("want BEGIN and two updates out of generation 0 at one instant, got %+v", moves)
	}
	if killed {
		t.Fatalf("long transaction killed with ample generation-1 space: %+v", m.Stats())
	}
	assertInv(t, m)
	done := false
	m.Commit(1, func() { done = true })
	churn(s, 500, 30, 84, 20*sim.Millisecond)
	s.Eng.Run(s.Eng.Now() + 5*sim.Second)
	if !done {
		t.Fatal("long transaction failed to commit after promotion")
	}
	assertInv(t, m)
}

func TestFirewallKillsLongTransaction(t *testing.T) {
	s := testSetup(t, Params{
		Mode: ModeFirewall, GenSizes: []int{6},
		BlockPayload: 100,
	}, FlushConfig{Drives: 1, Transfer: sim.Millisecond, NumObjects: 1000})
	m := s.LM
	var killedTid logrec.TxID
	m.SetKillHandler(func(tid logrec.TxID) { killedTid = tid })
	m.Begin(1)
	m.WriteData(1, 7, 84)
	churn(s, 100, 60, 84, 20*sim.Millisecond)
	if killedTid != 1 {
		t.Fatalf("firewall did not kill the oldest active transaction: %+v", m.Stats())
	}
	assertInv(t, m)
}

func TestFirewallShortTransactionsNeverKilled(t *testing.T) {
	s := testSetup(t, Params{
		Mode: ModeFirewall, GenSizes: []int{6},
		BlockPayload: 100,
	}, FlushConfig{Drives: 1, Transfer: sim.Millisecond, NumObjects: 1000})
	m := s.LM
	churn(s, 100, 200, 84, 20*sim.Millisecond)
	st := m.Stats()
	if st.Killed != 0 {
		t.Fatalf("short transactions killed in FW: %+v", st)
	}
	if st.Commits == 0 {
		t.Fatal("nothing committed")
	}
	if st.Gens[0].BlockWrites == 0 {
		t.Fatal("no log writes")
	}
	assertInv(t, m)
}

func TestFirewallMemoryModel(t *testing.T) {
	s := testSetup(t, Params{Mode: ModeFirewall, GenSizes: []int{16}})
	m := s.LM
	for tid := logrec.TxID(1); tid <= 5; tid++ {
		m.Begin(tid)
		m.WriteData(tid, logrec.OID(tid), 100)
	}
	st := m.Stats()
	if st.MemBytes != float64(5*MemPerTxFW) {
		t.Fatalf("FW memory %v, want %d", st.MemBytes, 5*MemPerTxFW)
	}
	// Commit durable => entries vanish in FW.
	for tid := logrec.TxID(1); tid <= 5; tid++ {
		m.Commit(tid, nil)
	}
	m.Quiesce()
	s.Eng.Run(sim.Second)
	if st := m.Stats(); st.MemBytes != 0 {
		t.Fatalf("FW memory %v after commits, want 0", st.MemBytes)
	}
	assertInv(t, m)
}

func TestEphemeralMemoryModel(t *testing.T) {
	s := testSetup(t, Params{Mode: ModeEphemeral, GenSizes: []int{8, 8}},
		FlushConfig{Drives: 1, Transfer: 10 * sim.Second, NumObjects: 1000})
	m := s.LM
	m.Begin(1)
	m.WriteData(1, 7, 100)
	m.WriteData(1, 8, 100)
	// 1 LTT entry + 2 LOT entries.
	if got := m.Stats().MemBytes; got != float64(MemPerTxEL+2*MemPerObjEL) {
		t.Fatalf("EL memory %v, want %d", got, MemPerTxEL+2*MemPerObjEL)
	}
	m.Commit(1, nil)
	m.Quiesce()
	s.Eng.Run(100 * sim.Millisecond)
	// Still unflushed: entries persist after commit in EL.
	if got := m.Stats().MemBytes; got != float64(MemPerTxEL+2*MemPerObjEL) {
		t.Fatalf("EL memory %v after commit (unflushed), want %d", got, MemPerTxEL+2*MemPerObjEL)
	}
	assertInv(t, m)
}

// TestHybridResolvesLastHeadWhole: with recirculation off, a committed
// transaction whose update reaches the last head has all three of its
// unflushed updates force flushed at that instant, where EL flushes each
// as its own record arrives.
func TestHybridResolvesLastHeadWhole(t *testing.T) {
	for _, mode := range []Mode{ModeEphemeral, ModeHybrid} {
		s := testSetup(t, Params{Mode: mode, GenSizes: []int{4, 4}, BlockPayload: 100},
			FlushConfig{Drives: 1, Transfer: 10 * sim.Second, NumObjects: 1000})
		m := s.LM
		var forced []sim.Time
		m.SetTracer(trace.Func(func(e trace.Event) {
			if e.Kind == trace.EvForceFlush && e.Obj >= 7 && e.Obj <= 9 {
				forced = append(forced, e.At)
			}
		}))
		m.Begin(1)
		for oid := logrec.OID(7); oid <= 9; oid++ {
			m.WriteData(1, oid, 84) // one block each
			s.Eng.Run(s.Eng.Now() + 20*sim.Millisecond)
		}
		m.Commit(1, nil)
		churn(s, 100, 60, 84, 20*sim.Millisecond)
		whole := len(forced) == 3 && forced[0] == forced[2]
		if len(forced) != 3 || whole != (mode == ModeHybrid) {
			t.Fatalf("%v: tx 1's updates force flushed at %v", mode, forced)
		}
		assertInv(t, m)
	}
}

// TestHybridMemoryModel: the hybrid charges MemPerTxHybrid per LTT entry
// and nothing per object. Two transactions overlap once — the second
// begins before the first's commit is durable — so the peak is exactly two
// entries; the first then retires with its update flushed.
func TestHybridMemoryModel(t *testing.T) {
	s := testSetup(t, Params{Mode: ModeHybrid, GenSizes: []int{8, 8}, BlockPayload: 100})
	m := s.LM
	m.Begin(1)
	lsn := m.WriteData(1, 7, 84)
	m.Commit(1, nil)
	m.Begin(2)
	m.WriteData(2, 8, 84)
	s.Eng.Run(sim.Second)
	if v, ok := m.DB().Get(7); !ok || v.LSN != lsn {
		t.Fatalf("flushed version %+v %v, want LSN %d", v, ok, lsn)
	}
	st := m.Stats()
	if st.LTTEntries != 1 || st.MemBytes != MemPerTxHybrid {
		t.Fatalf("%d LTT entries, %v B, want tx 2 alone at %d B", st.LTTEntries, st.MemBytes, MemPerTxHybrid)
	}
	if st.MemPeakBytes != 2*MemPerTxHybrid {
		t.Fatalf("mem peak %v, want %d", st.MemPeakBytes, 2*MemPerTxHybrid)
	}
	assertInv(t, m)
}

func TestBeginOfDuplicateTidPanics(t *testing.T) {
	s := testSetup(t, Params{Mode: ModeEphemeral, GenSizes: []int{8, 8}})
	s.LM.Begin(1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Begin did not panic")
		}
	}()
	s.LM.Begin(1)
}

func TestWriteAfterCommitPanics(t *testing.T) {
	s := testSetup(t, Params{Mode: ModeEphemeral, GenSizes: []int{8, 8}})
	s.LM.Begin(1)
	s.LM.Commit(1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("WriteData after Commit did not panic")
		}
	}()
	s.LM.WriteData(1, 7, 100)
}

func TestOversizeRecordPanics(t *testing.T) {
	s := testSetup(t, Params{Mode: ModeEphemeral, GenSizes: []int{8, 8}})
	s.LM.Begin(1)
	defer func() {
		if recover() == nil {
			t.Fatal("oversize record did not panic")
		}
	}()
	s.LM.WriteData(1, 7, 4000)
}

func TestLifetimeHintPlacement(t *testing.T) {
	for _, mode := range []Mode{ModeEphemeral, ModeHybrid} {
		t.Run(mode.String(), func(t *testing.T) {
			s := testSetup(t, Params{
				Mode: mode, GenSizes: []int{8, 8},
				Recirculate:        true,
				HintBoundaries:     []sim.Time{2 * sim.Second},
				GroupCommitTimeout: 50 * sim.Millisecond,
			})
			m := s.LM
			m.BeginHinted(1, 10*sim.Second) // long: starts in generation 1
			m.WriteData(1, 7, 100)
			m.BeginHinted(2, sim.Second) // short: generation 0
			m.WriteData(2, 8, 100)
			st := m.Stats()
			if st.Gens[1].Cells != 2 { // BEGIN + data of tx 1
				t.Fatalf("gen 1 cells = %d, want 2 (hinted tx records)", st.Gens[1].Cells)
			}
			if st.Gens[0].Cells != 2 {
				t.Fatalf("gen 0 cells = %d, want 2", st.Gens[0].Cells)
			}
			done := 0
			m.Commit(1, func() { done++ })
			m.Commit(2, func() { done++ })
			s.Eng.Run(sim.Second)
			if done != 2 {
				t.Fatalf("hinted transactions durable: %d, want 2 (group-commit timeout)", done)
			}
			assertInv(t, m)
		})
	}
}

func TestStatsString(t *testing.T) {
	s := testSetup(t, Params{Mode: ModeEphemeral, GenSizes: []int{8, 8}})
	s.LM.Begin(1)
	s.LM.WriteData(1, 7, 100)
	s.LM.Commit(1, nil)
	s.LM.Quiesce()
	s.Eng.Run(sim.Second)
	out := s.LM.Stats().String()
	if len(out) == 0 {
		t.Fatal("empty stats report")
	}
	st := s.LM.Stats()
	if st.Insufficient() {
		t.Fatalf("healthy run reported insufficient: %s", out)
	}
}

func TestTracerCapturesLifecycle(t *testing.T) {
	s := testSetup(t, Params{Mode: ModeEphemeral, GenSizes: []int{4, 8}, BlockPayload: 100})
	ring := trace.NewRing(256)
	s.LM.SetTracer(ring)
	m := s.LM
	m.Begin(1)
	for i := 0; i < 6; i++ {
		m.WriteData(1, logrec.OID(10+i), 84)
		s.Eng.Run(s.Eng.Now() + 20*sim.Millisecond)
	}
	m.Commit(1, nil)
	m.Quiesce()
	s.Eng.Run(s.Eng.Now() + 5*sim.Second)
	for _, k := range []trace.Kind{trace.EvAppend, trace.EvSeal, trace.EvDurable,
		trace.EvForward, trace.EvCommit, trace.EvFlush} {
		if ring.Count(k) == 0 {
			t.Fatalf("no %v events traced; dump:\n%s", k, ring.Dump(40))
		}
	}
	if ring.Count(trace.EvAppend) != 8 { // BEGIN + 6 data + COMMIT
		t.Fatalf("append events = %d, want 8", ring.Count(trace.EvAppend))
	}
	if ring.Dump(5) == "" {
		t.Fatal("empty dump")
	}
	m.SetTracer(nil) // detaching must be safe
	m.Begin(2)
	m.Abort(2)
}
