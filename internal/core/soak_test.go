package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"ellog/internal/logrec"
	"ellog/internal/sim"
	"ellog/internal/statedb"
)

// soakConfig shapes one randomized run.
type soakConfig struct {
	seed       uint64
	mode       Mode
	genSizes   []int
	recirc     bool
	steal      bool
	broad      bool
	payload    int
	txCount    int
	maxWrites  int
	abortEvery int // 0 = never abort voluntarily
	transfer   sim.Time
}

// runSoak drives a manager with randomized begin/write/commit/abort
// traffic, checking invariants as it goes, then drains everything and
// verifies that the stable database exactly matches the oracle of durably
// committed updates. Killed transactions are excluded from the oracle.
func runSoak(t *testing.T, cfg soakConfig) Stats {
	t.Helper()
	eng := sim.NewEngine(cfg.seed, cfg.seed^0xdead)
	rng := rand.New(rand.NewPCG(cfg.seed, 77))
	s, err := NewSetup(eng, Params{
		Mode:            cfg.mode,
		GenSizes:        cfg.genSizes,
		Recirculate:     cfg.recirc,
		Steal:           cfg.steal,
		BroadNonGarbage: cfg.broad,
		BlockPayload: func() int {
			if cfg.payload == 0 {
				return 2000
			}
			return cfg.payload
		}(),
	}, FlushConfig{Drives: 2, Transfer: cfg.transfer, NumObjects: 1000})
	if err != nil {
		t.Fatal(err)
	}
	m := s.LM

	type txInfo struct {
		writes map[logrec.OID]logrec.LSN
		alive  bool
		done   bool
	}
	txs := map[logrec.TxID]*txInfo{}
	oracle := map[logrec.OID]logrec.LSN{} // latest durably committed LSN per oid
	heldOids := map[logrec.OID]logrec.TxID{}

	m.SetKillHandler(func(tid logrec.TxID) {
		info := txs[tid]
		info.alive = false
		for oid := range info.writes {
			if heldOids[oid] == tid {
				delete(heldOids, oid)
			}
		}
	})

	var live []logrec.TxID
	nextTid := logrec.TxID(1)
	for i := 0; i < cfg.txCount; i++ {
		// Maybe begin a new transaction.
		if len(live) < 6 || rng.IntN(2) == 0 {
			tid := nextTid
			nextTid++
			txs[tid] = &txInfo{writes: map[logrec.OID]logrec.LSN{}, alive: true}
			m.Begin(tid)
			live = append(live, tid)
		}
		// Random writes by random live transactions.
		for w := 0; w < rng.IntN(cfg.maxWrites+1); w++ {
			if len(live) == 0 {
				break
			}
			tid := live[rng.IntN(len(live))]
			info := txs[tid]
			if !info.alive {
				continue
			}
			oid := logrec.OID(rng.IntN(200))
			if holder, held := heldOids[oid]; held && holder != tid {
				continue // the paper's oid draw: unique among active txs
			}
			size := 20 + rng.IntN(60)
			lsn := m.WriteData(tid, oid, size)
			info.writes[oid] = lsn
			heldOids[oid] = tid
		}
		// Maybe finish the oldest live transaction.
		if len(live) > 0 && rng.IntN(3) == 0 {
			tid := live[0]
			live = live[1:]
			info := txs[tid]
			if info.alive {
				if cfg.abortEvery > 0 && rng.IntN(cfg.abortEvery) == 0 {
					m.Abort(tid)
					info.alive = false
					for oid := range info.writes {
						if heldOids[oid] == tid {
							delete(heldOids, oid)
						}
					}
				} else {
					writes := info.writes
					localTid := tid
					m.Commit(tid, func() {
						txs[localTid].done = true
						for oid, lsn := range writes {
							if oracle[oid] < lsn {
								oracle[oid] = lsn
							}
							if heldOids[oid] == localTid {
								delete(heldOids, oid)
							}
						}
					})
				}
			}
		}
		eng.Run(eng.Now() + sim.Time(rng.IntN(30))*sim.Millisecond)
		if i%25 == 0 {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", cfg.seed, i, err)
			}
		}
	}
	// Finish every remaining live transaction, drain all buffers and
	// flushes.
	for _, tid := range live {
		info := txs[tid]
		if !info.alive {
			continue
		}
		writes := info.writes
		localTid := tid
		m.Commit(tid, func() {
			txs[localTid].done = true
			for oid, lsn := range writes {
				if oracle[oid] < lsn {
					oracle[oid] = lsn
				}
			}
		})
	}
	m.Quiesce()
	eng.Run(eng.Now() + 30*sim.Second)
	m.Quiesce() // anything recirculated meanwhile
	eng.Run(eng.Now() + 30*sim.Second)

	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("seed %d final: %v", cfg.seed, err)
	}
	st := m.Stats()
	// After draining, no non-garbage records may remain.
	if st.LOTEntries != 0 || st.LTTEntries != 0 {
		t.Fatalf("seed %d: tables not drained: LOT=%d LTT=%d\n%s", cfg.seed, st.LOTEntries, st.LTTEntries, st)
	}
	for i, g := range st.Gens {
		if g.Cells != 0 {
			t.Fatalf("seed %d: gen %d still has %d cells", cfg.seed, i, g.Cells)
		}
	}
	// The stable database must now hold exactly the oracle state.
	for oid, lsn := range oracle {
		v, ok := m.DB().Get(oid)
		if !ok || v.LSN < lsn {
			t.Fatalf("seed %d: oid %d stable LSN %d, oracle %d (ok=%v)", cfg.seed, oid, v.LSN, lsn, ok)
		}
	}
	// And nothing beyond it (killed/aborted updates must not leak).
	var leak error
	m.DB().Range(func(oid logrec.OID, v statedb.Version) bool {
		if oracle[oid] != v.LSN {
			leak = fmt.Errorf("oid %d stable LSN %d, oracle %d", oid, v.LSN, oracle[oid])
			return false
		}
		return true
	})
	if leak != nil {
		t.Fatalf("seed %d: uncommitted state leaked: %v", cfg.seed, leak)
	}
	return st
}

func TestSoakEphemeralRecirc(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		st := runSoak(t, soakConfig{
			seed: seed, mode: ModeEphemeral,
			genSizes: []int{6, 6}, recirc: true,
			payload: 300, txCount: 300, maxWrites: 3,
			abortEvery: 8, transfer: 10 * sim.Millisecond,
		})
		if st.Killed > 0 {
			// Kills are legal under pressure, but the oracle already
			// excludes them; nothing more to assert.
			t.Logf("seed %d: %d kills under pressure", seed, st.Killed)
		}
	}
}

func TestSoakEphemeralNoRecirc(t *testing.T) {
	for seed := uint64(10); seed <= 14; seed++ {
		runSoak(t, soakConfig{
			seed: seed, mode: ModeEphemeral,
			genSizes: []int{6, 8}, recirc: false,
			payload: 300, txCount: 250, maxWrites: 3,
			abortEvery: 10, transfer: 8 * sim.Millisecond,
		})
	}
}

func TestSoakEphemeralThreeGenerations(t *testing.T) {
	for seed := uint64(20); seed <= 23; seed++ {
		runSoak(t, soakConfig{
			seed: seed, mode: ModeEphemeral,
			genSizes: []int{5, 5, 6}, recirc: true,
			payload: 250, txCount: 250, maxWrites: 2,
			abortEvery: 12, transfer: 10 * sim.Millisecond,
		})
	}
}

// hybridSoak is the EL-FW hybrid under the same randomized traffic, with
// and without a recirculating last generation.
func hybridSoak(seed uint64, recirc bool) soakConfig {
	return soakConfig{
		seed: seed, mode: ModeHybrid,
		genSizes: []int{6, 8}, recirc: recirc,
		payload: 300, txCount: 300, maxWrites: 3,
		abortEvery: 8, transfer: 10 * sim.Millisecond,
	}
}

func TestSoakHybridRecirc(t *testing.T) {
	for seed := uint64(60); seed <= 64; seed++ {
		runSoak(t, hybridSoak(seed, true))
	}
}

func TestSoakHybridNoRecirc(t *testing.T) {
	for seed := uint64(65); seed <= 69; seed++ {
		runSoak(t, hybridSoak(seed, false))
	}
}

// TestHybridDeterminism: two hybrid runs with the same seed end in
// identical Stats.
func TestHybridDeterminism(t *testing.T) {
	a, b := runSoak(t, hybridSoak(61, true)), runSoak(t, hybridSoak(61, true))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("hybrid runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestSoakTinyGenerationsUnderPressure(t *testing.T) {
	// Deliberately undersized: kills and emergency growth are expected;
	// the point is that invariants and oracle equality hold regardless.
	for seed := uint64(30); seed <= 34; seed++ {
		runSoak(t, soakConfig{
			seed: seed, mode: ModeEphemeral,
			genSizes: []int{4, 4}, recirc: true,
			payload: 150, txCount: 200, maxWrites: 4,
			abortEvery: 0, transfer: 40 * sim.Millisecond,
		})
	}
}
