package core

import (
	"strings"
	"testing"

	"ellog/internal/logrec"
	"ellog/internal/sim"
)

// TestInvariantsCatchUseAfterRecycle plants each kind of premature recycling
// in a healthy manager and checks that CheckInvariants names it: a record
// recycled under a live cell, under an unwritten buffer, a live cell on the
// free list, and a free-listed cell written through a stale pointer.
func TestInvariantsCatchUseAfterRecycle(t *testing.T) {
	build := func() (*Manager, *lotEntry) {
		s := testSetup(t, Params{Mode: ModeEphemeral, GenSizes: []int{8, 8}})
		m := s.LM
		m.Begin(1)
		m.WriteData(1, 7, 100)
		m.Begin(2)
		m.WriteData(2, 9, 100)
		m.Commit(2, nil)
		m.Quiesce()
		s.Eng.Run(20 * sim.Millisecond) // tx 2's block is durable; its update awaits its flush
		m.Begin(3)
		m.WriteData(3, 11, 100) // sits in the open fill buffer
		assertInv(t, m)
		le, ok := m.lot.Get(7)
		if !ok {
			t.Fatal("object 7 has no LOT entry")
		}
		return m, le
	}
	for _, tc := range []struct {
		name  string
		plant func(m *Manager, le *lotEntry)
		want  string
	}{
		{"record of a live cell", func(m *Manager, le *lotEntry) {
			m.recs.Put(le.uncommitted.rec)
		}, "cell holds a recycled record"},
		{"record of an unwritten buffer", func(m *Manager, _ *lotEntry) {
			// Tx 3's COMMIT supersedes its BEGIN, which no cell holds any
			// more but the open buffer still has to write.
			m.Commit(3, nil)
			m.recs.Put(m.gens[0].fill.recs[0])
		}, "unwritten buffer holds a recycled record"},
		{"live cell", func(m *Manager, le *lotEntry) {
			c := le.uncommitted
			c.buf = &buffer{} // keep the record out of it
			m.gens[c.gen].list.remove(c)
			m.freeCell(c)
		}, "free list"},
		{"write after recycle", func(m *Manager, _ *lotEntry) {
			m.Begin(4)
			m.Abort(4) // its tx cell is now on the free list
			m.cells.free[len(m.cells.free)-1].rec = &logrec.Record{LSN: 99}
		}, "free list is in use"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, le := build()
			tc.plant(m, le)
			err := m.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want a complaint about %q", err, tc.want)
			}
		})
	}
}
