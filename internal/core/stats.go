package core

import (
	"fmt"
	"strings"

	"ellog/internal/flushdisk"
	"ellog/internal/sim"
)

// GenStats describes one generation at reporting time.
type GenStats struct {
	Size        int     // configured capacity in blocks
	Used        int     // blocks occupied right now
	UsedPeak    float64 // peak occupancy
	BlockWrites uint64  // completed block writes to this generation
	Bandwidth   float64 // block writes per second
	Cells       int     // non-garbage records tracked
}

// Stats is a snapshot of everything the paper measures: disk space, disk
// bandwidth to the log (block writes per second), main memory for the LOT
// and LTT, flush behaviour, and the kill count that defines whether a disk
// budget was sufficient.
type Stats struct {
	Mode    Mode
	Elapsed sim.Time

	Begins, Commits, Aborts, Killed uint64

	AppendedRecs  uint64 // records entering the log (excluding moves)
	AppendedBytes uint64
	Forwarded     uint64 // records moved to an older generation
	Recirculated  uint64 // records recirculated in the last generation
	Garbage       uint64 // records that became garbage

	Gens           []GenStats
	TotalBlocks    int     // configured disk space for the log
	TotalWrites    uint64  // block writes across all generations
	TotalBandwidth float64 // block writes per second, whole log

	LOTEntries, LTTEntries int
	MemBytes               float64 // current LOT+LTT memory (paper's model)
	MemPeakBytes           float64
	MemAvgBytes            float64
	LOTPeak, LTTPeak       float64

	CommitDelayMean float64 // seconds from COMMIT append to durability
	CommitDelayP99  float64

	Flush flushdisk.Stats

	DBApplies uint64

	// Health: non-zero values mean the configuration could not sustain the
	// workload within its disk budget.
	EmergencyBlocks uint64
	BufferStalls    uint64
	RefugeeStalls   uint64

	// Fault injection (always zero in the fault-free model).
	WriteErrors     uint64 // block-write attempts that returned a transient error
	WriteRetries    uint64 // reissues of failed block writes
	AbandonedWrites uint64 // blocks given up on after exhausting the retry budget
}

// Insufficient reports whether this run exceeded its disk budget: some
// transaction was killed or the manager had to conjure emergency blocks.
// The paper's minimum-space experiments "continued to run simulations and
// reduce the disk space until we observed transactions being killed".
func (s Stats) Insufficient() bool {
	return s.Killed > 0 || s.EmergencyBlocks > 0 || s.RefugeeStalls > 0
}

// Stats captures a snapshot at the current simulated time.
func (m *Manager) Stats() Stats {
	now := m.clk.Now()
	devStats := m.dev.Stats()
	s := Stats{
		Mode:    m.p.Mode,
		Elapsed: now,

		Begins:  m.begins.Count(),
		Commits: m.commits.Count(),
		Aborts:  m.aborts.Count(),
		Killed:  m.killedTxs.Count(),

		AppendedRecs:  m.appendedRecs.Count(),
		AppendedBytes: m.appendedBytes.Count(),
		Forwarded:     m.forwardedRecs.Count(),
		Recirculated:  m.recircRecs.Count(),
		Garbage:       m.garbaged.Count(),

		TotalWrites: devStats.Writes,

		LOTEntries:   m.lot.Len(),
		LTTEntries:   m.ltt.Len(),
		MemBytes:     m.memGauge.Value(),
		MemPeakBytes: m.memGauge.Peak(),
		MemAvgBytes:  m.memGauge.TimeAvg(now),
		LOTPeak:      m.lotGauge.Peak(),
		LTTPeak:      m.lttGauge.Peak(),

		CommitDelayMean: m.commitDelay.Mean(),
		CommitDelayP99:  m.commitDelay.Quantile(0.99),

		Flush:     m.flush.Stats(now),
		DBApplies: m.db.Applies(),

		EmergencyBlocks: m.emergencyBlocks.Count(),
		BufferStalls:    m.bufferStalls.Count(),
		RefugeeStalls:   m.refugeeStalls.Count(),

		WriteErrors:     m.writeErrors.Count(),
		WriteRetries:    m.writeRetries.Count(),
		AbandonedWrites: m.abandonedWrites.Count(),
	}
	for i, g := range m.gens {
		gs := GenStats{
			Size:        g.size(),
			Used:        g.used,
			UsedPeak:    m.usedGauges[i].Peak(),
			BlockWrites: devStats.WritesPerGen[i],
			Cells:       g.list.len(),
		}
		if now > 0 {
			gs.Bandwidth = float64(gs.BlockWrites) / now.Seconds()
		}
		s.Gens = append(s.Gens, gs)
		s.TotalBlocks += gs.Size
	}
	if now > 0 {
		s.TotalBandwidth = float64(s.TotalWrites) / now.Seconds()
	}
	return s
}

// --- probe accessors ---------------------------------------------------
//
// Cheap O(1) reads for the observability sampler. Stats() allocates (it
// copies device maps and builds slices), which is too heavy to call once
// per sample tick; these read single fields instead.

// GenUsed reports the blocks currently occupied in generation i.
func (m *Manager) GenUsed(i int) int { return m.gens[i].used }

// GenLiveCells reports the non-garbage records tracked in generation i.
func (m *Manager) GenLiveCells(i int) int { return m.gens[i].list.len() }

// LOTLen reports the current log object table occupancy.
func (m *Manager) LOTLen() int { return m.lot.Len() }

// LTTLen reports the current log transaction table occupancy.
func (m *Manager) LTTLen() int { return m.ltt.Len() }

// MemBytes reports the paper-model main memory in use right now
// (MemPerTx per LTT entry plus MemPerObj per LOT entry).
func (m *Manager) MemBytes() float64 { return m.memGauge.Value() }

// Insufficient reports whether the run has exceeded its disk budget so
// far, reading the three health counters directly — the cheap form of
// Stats().Insufficient() for callers that need only the bool.
func (m *Manager) Insufficient() bool {
	return m.killedTxs.Count() > 0 || m.emergencyBlocks.Count() > 0 || m.refugeeStalls.Count() > 0
}

// CommitCount reports committed transactions so far.
func (m *Manager) CommitCount() uint64 { return m.commits.Count() }

// AppendedByteCount reports logical bytes appended to the log so far.
func (m *Manager) AppendedByteCount() uint64 { return m.appendedBytes.Count() }

// WriteRetryCount reports reissued block writes so far.
func (m *Manager) WriteRetryCount() uint64 { return m.writeRetries.Count() }

// KilledCount reports transactions killed for log space so far.
func (m *Manager) KilledCount() uint64 { return m.killedTxs.Count() }

// TotalBlocks reports the configured disk space for the whole log right
// now (generation sizes move under the adaptive controller).
func (m *Manager) TotalBlocks() int {
	total := 0
	for i := range m.gens {
		total += m.gens[i].size()
	}
	return total
}

// String renders a compact human-readable report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s after %v: %d begun, %d committed, %d aborted, %d killed\n",
		s.Mode, s.Elapsed, s.Begins, s.Commits, s.Aborts, s.Killed)
	fmt.Fprintf(&b, "  log: %d blocks total, %.2f writes/s (%d writes), %d recs in, %d forwarded, %d recirculated\n",
		s.TotalBlocks, s.TotalBandwidth, s.TotalWrites, s.AppendedRecs, s.Forwarded, s.Recirculated)
	for i, g := range s.Gens {
		fmt.Fprintf(&b, "  gen %d: %d blocks (peak used %.0f), %.2f writes/s, %d live records\n",
			i, g.Size, g.UsedPeak, g.Bandwidth, g.Cells)
	}
	fmt.Fprintf(&b, "  memory: %.0f B now, %.0f B peak (LOT peak %.0f, LTT peak %.0f)\n",
		s.MemBytes, s.MemPeakBytes, s.LOTPeak, s.LTTPeak)
	fmt.Fprintf(&b, "  commit delay: mean %.1f ms, p99 %.1f ms\n", s.CommitDelayMean*1e3, s.CommitDelayP99*1e3)
	fmt.Fprintf(&b, "  flush: %d done (%d forced), avg oid distance %.0f, busy %.0f%%, backlog peak %d\n",
		s.Flush.Flushes, s.Flush.Forced, s.Flush.AvgDistance, s.Flush.BusyFrac*100, s.Flush.MaxPending)
	if s.WriteErrors > 0 || s.AbandonedWrites > 0 {
		fmt.Fprintf(&b, "  faults: %d write errors, %d retries, %d writes abandoned\n",
			s.WriteErrors, s.WriteRetries, s.AbandonedWrites)
	}
	if s.Insufficient() {
		fmt.Fprintf(&b, "  INSUFFICIENT SPACE: killed=%d emergency=%d refugeeStalls=%d\n",
			s.Killed, s.EmergencyBlocks, s.RefugeeStalls)
	}
	return b.String()
}
