package core

import (
	"testing"

	"ellog/internal/logrec"
	"ellog/internal/sim"
)

// liveRecords counts the cells reachable from the LOT and LTT — the live
// (non-garbage) records the accounting identity is balanced against.
func liveRecords(m *Manager) uint64 {
	reachable := make(map[*cell]bool)
	m.lot.Range(func(_ uint64, le *lotEntry) bool {
		if le.committed != nil {
			reachable[le.committed] = true
		}
		for c := le.uncommitted; c != nil; c = c.nextWriter {
			reachable[c] = true
		}
		for _, c := range le.superseded {
			reachable[c] = true
		}
		return true
	})
	m.ltt.Range(func(_ uint64, e *lttEntry) bool {
		reachable[e.txCell] = true
		return true
	})
	return uint64(len(reachable))
}

func assertBalance(t *testing.T, m *Manager, when string) {
	t.Helper()
	st := m.Stats()
	if live := liveRecords(m); st.AppendedRecs != st.Garbage+live {
		t.Fatalf("%s: %d appended != %d garbage + %d live", when, st.AppendedRecs, st.Garbage, live)
	}
}

// TestCommitCountsSupersededBegin: the BEGIN record superseded by the
// COMMIT record is garbage from the moment Commit runs — regardless of
// whether its cell is listed or detached — and must be counted so the
// Garbage/AppendedRecs bandwidth stats balance.
func TestCommitCountsSupersededBegin(t *testing.T) {
	s := testSetup(t, Params{Mode: ModeEphemeral, GenSizes: []int{8, 8}})
	m := s.LM
	m.Begin(1)
	m.WriteData(1, 7, 100)
	if got := m.Stats().Garbage; got != 0 {
		t.Fatalf("garbage before commit = %d, want 0", got)
	}
	m.Commit(1, nil)
	if got := m.Stats().Garbage; got != 1 {
		t.Fatalf("garbage after commit = %d, want 1 (the superseded BEGIN)", got)
	}
	assertBalance(t, m, "after commit")
	m.Quiesce()
	s.Eng.Run(sim.Second)
	st := m.Stats()
	// Fully drained: BEGIN+data+COMMIT all appended, all garbage.
	if st.AppendedRecs != 3 || st.Garbage != 3 {
		t.Fatalf("after drain: appended=%d garbage=%d, want 3/3", st.AppendedRecs, st.Garbage)
	}
	assertInv(t, m)
}

// TestRecordAccountingUnderKillPressure: transactions killed by the
// space-making cascade — possibly mid-append of their own records — must
// keep appended == garbage + live at every step. Before the accounting
// audit, records killed during their own append were counted as garbage
// but never as appended.
func TestRecordAccountingUnderKillPressure(t *testing.T) {
	s := testSetup(t, Params{
		Mode: ModeEphemeral, GenSizes: []int{4, 4},
		BlockPayload: 150,
	})
	m := s.LM
	m.SetKillHandler(func(logrec.TxID) {})
	// A horde of long-lived writers against a tiny log forces kills.
	tid := logrec.TxID(1)
	for round := 0; round < 60; round++ {
		m.Begin(tid)
		for w := 0; w < 4; w++ {
			if e, ok := m.ltt.Get(uint64(tid)); !ok || e.state != txActive {
				break // killed mid-round by its own append's cascade
			}
			m.WriteData(tid, logrec.OID(int(tid)*10+w), 60)
		}
		if e, ok := m.ltt.Get(uint64(tid)); ok && e.state == txActive && round%3 == 2 {
			m.Commit(tid, nil)
		}
		tid++
		s.Eng.Run(s.Eng.Now() + 2*sim.Millisecond)
		assertBalance(t, m, "mid-run")
		assertInv(t, m)
	}
	if m.Stats().Killed == 0 {
		t.Fatal("pressure run killed nothing; the scenario lost its teeth")
	}
	m.Quiesce()
	s.Eng.Run(s.Eng.Now() + 10*sim.Second)
	assertBalance(t, m, "after drain")
	assertInv(t, m)
}
