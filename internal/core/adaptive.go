package core

import (
	"fmt"

	"ellog/internal/sim"
	"ellog/internal/trace"
)

// This file provides the control surface for the adaptive-sizing extension
// (internal/adaptive): per-epoch pressure observations and online resizing
// of generations. The paper wishes for "an adaptable version of EL that
// dynamically chooses the number and sizes of generations itself"
// (section 6); these hooks let a controller do exactly that while the
// simulation runs.

// EpochGenStats is one generation's pressure record since the last call to
// EpochStats.
type EpochGenStats struct {
	Size      int // current capacity in blocks
	PeakUsed  int // highest occupancy during the epoch
	Kills     uint64
	Emergency uint64
	In        uint64 // records that entered the generation
	Out       uint64 // records forwarded out to the next generation
	Claims    uint64 // blocks claimed (fill activity)
	// AgeQ90 and AgeQ99 are high quantiles of the residence time at which
	// records became garbage in this generation; AgeSamples counts the
	// deaths observed. Residence x fill rate estimates the space the
	// generation truly needs.
	AgeQ90     sim.Time
	AgeQ99     sim.Time
	AgeSamples uint64
}

// EpochStats returns per-generation pressure since the previous call and
// resets the epoch counters. The adaptive controller polls it once per
// epoch.
func (m *Manager) EpochStats() []EpochGenStats {
	out := make([]EpochGenStats, len(m.gens))
	for i, g := range m.gens {
		q90, n := g.ageQuantile(0.90)
		q99, _ := g.ageQuantile(0.99)
		out[i] = EpochGenStats{
			Size:       g.size(),
			PeakUsed:   g.epochPeakUsed,
			Kills:      g.epochKills,
			Emergency:  g.epochEmerg,
			In:         g.epochIn,
			Out:        g.epochOut,
			Claims:     g.epochClaims,
			AgeQ90:     q90,
			AgeQ99:     q99,
			AgeSamples: n,
		}
		g.epochPeakUsed = g.used
		g.epochKills = 0
		g.epochEmerg = 0
		g.epochIn = 0
		g.epochOut = 0
		g.epochClaims = 0
		g.epochAges = [ageBuckets]uint32{}
	}
	return out
}

// GrowGeneration adds n free blocks to generation i, effective
// immediately. Unlike the emergency path this is a deliberate resize and
// does not mark the run as insufficient.
func (m *Manager) GrowGeneration(i, n int) {
	if i < 0 || i >= len(m.gens) || n <= 0 {
		panic(fmt.Sprintf("core: GrowGeneration(%d, %d) out of range", i, n))
	}
	defer m.leave(m.enter())
	m.gens[i].grow(m.dev, n)
	m.emit(trace.Event{Kind: trace.EvResize, Gen: i, N: n})
}

// ShrinkGeneration removes up to n free blocks from generation i, never
// cutting into the threshold gap, occupied blocks, or blocks whose stale
// contents still protect unwritten buffers. It returns how many blocks
// were actually removed.
func (m *Manager) ShrinkGeneration(i, n int) int {
	if i < 0 || i >= len(m.gens) || n <= 0 {
		panic(fmt.Sprintf("core: ShrinkGeneration(%d, %d) out of range", i, n))
	}
	defer m.leave(m.enter())
	got := m.gens[i].shrink(n, m.p.ThresholdK)
	if got > 0 {
		m.emit(trace.Event{Kind: trace.EvResize, Gen: i, N: -got})
	}
	return got
}

// GenSize reports generation i's current capacity in blocks.
func (m *Manager) GenSize(i int) int { return m.gens[i].size() }

// NumGenerations reports how many generations the log chain has.
func (m *Manager) NumGenerations() int { return len(m.gens) }

// MinBlocksAdaptive is the smallest size the adaptive controller will
// shrink a generation to: the threshold gap, one filling block and slack.
const MinBlocksAdaptive = 5
