// Package core implements the paper's primary contribution: the ephemeral
// logging (EL) disk-management technique for a database log (section 2),
// plus the traditional firewall (FW) technique it is evaluated against
// (section 4 simulates FW "by using a single log with no recirculation"),
// and the EL-FW hybrid section 6 sketches (ModeHybrid).
//
// EL manages the log as a chain of fixed-size queues called generations,
// each a circular array of disk blocks. New records enter the tail of
// generation 0. Non-garbage records reaching the head of generation i are
// forwarded to the tail of generation i+1; in the last generation they are
// recirculated back to its own tail. Garbage records are simply passed
// over (their space is reclaimed when the head moves past their block).
// Committed updates are continuously flushed to the stable database so
// their log records become garbage, ideally before ever reaching a head.
//
// All non-garbage records are tracked in main memory by cells joined in a
// circular doubly linked list per generation, reachable from the logged
// object table (LOT) and logged transaction table (LTT) — see section 2.3.
package core

import (
	"fmt"

	"ellog/internal/sim"
)

// Mode selects the disk-management technique.
type Mode int

const (
	// ModeEphemeral is the paper's technique: N generations, forwarding,
	// optional recirculation in the last generation, continuous flushing.
	ModeEphemeral Mode = iota
	// ModeFirewall is the System R baseline: a single queue whose head
	// (the firewall) cannot pass the oldest log record of the oldest
	// active transaction; lengthy transactions are killed when the log
	// fills. Per section 4 the simulated FW carries no checkpointing
	// overhead — a committed transaction's records become garbage as soon
	// as the commit is durable — which favours FW.
	ModeFirewall
	// ModeHybrid is the EL-FW hybrid of section 6: EL's chain of queues,
	// but the LM "retains a pointer to only the oldest log record from
	// each transaction". It is EL plus two rules. Memory is charged per
	// transaction only (MemPerTxHybrid, no LOT charge). When head advance
	// moves a record out of a generation, every other record its
	// transaction has there with a durable copy moves to the same tail
	// (Manager.regenerate); with recirculation off, a transaction reaching
	// the last head is resolved whole.
	ModeHybrid
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeEphemeral:
		return "EL"
	case ModeFirewall:
		return "FW"
	case ModeHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Defaults fixed by the paper's simulator (section 3).
const (
	// DefaultBlockPayload is the usable bytes per 2048-byte disk block
	// (48 bytes are reserved for bookkeeping).
	DefaultBlockPayload = 2000
	// DefaultBuffersPerGen is the number of block buffers per generation.
	DefaultBuffersPerGen = 4
	// DefaultThresholdK is the minimum number of blocks that must remain
	// available to hold new log records.
	DefaultThresholdK = 2
	// DefaultTxRecSize is the size of BEGIN and COMMIT records in bytes.
	DefaultTxRecSize = 8
	// DefaultWriteLatency is tau_DiskWrite, the conservative fixed delay to
	// transfer a buffer's contents to disk.
	DefaultWriteLatency = 15 * sim.Millisecond
	// MemPerTxFW is the paper's estimate of FW main memory per in-system
	// transaction (including the pointer to its oldest record's position).
	MemPerTxFW = 22
	// MemPerTxEL is the paper's estimate of EL main memory per transaction
	// with an LTT entry.
	MemPerTxEL = 40
	// MemPerObjEL is the paper's estimate of EL main memory per updated
	// but unflushed object (LOT entry).
	MemPerObjEL = 40
	// MemPerTxHybrid is the hybrid's main memory per transaction: FW's
	// entry with its pointer to the oldest record, plus the index of the
	// generation holding that record. The hybrid keeps no per-object
	// entries.
	MemPerTxHybrid = 24
)

// Params configures a Manager.
type Params struct {
	// Mode selects EL or FW.
	Mode Mode
	// GenSizes gives each generation's capacity in blocks, youngest first.
	// FW uses exactly one generation.
	GenSizes []int
	// Recirculate enables recirculation in the last generation (not FW).
	// When off, a still-needed record reaching the last head kills its
	// transaction (if active) or forces a random flush (if committed).
	Recirculate bool
	// BlockPayload is the usable bytes per block (default 2000).
	BlockPayload int
	// BuffersPerGen bounds concurrently held block buffers per generation
	// (default 4). Exhaustion is counted, not blocked on — the paper's
	// workload model has no feedback into transaction pacing.
	BuffersPerGen int
	// ThresholdK is the minimum free-block gap per generation (default 2).
	ThresholdK int
	// TxRecSize is the logical size of BEGIN/COMMIT records (default 8).
	TxRecSize int
	// WriteLatency is the block write transfer time (default 15 ms).
	WriteLatency sim.Time
	// MemPerTx and MemPerObj set the main-memory accounting model
	// (EL: 40/40; FW: 22/0; hybrid: 24/0).
	MemPerTx  int
	MemPerObj int
	// GroupCommitTimeout, when positive, bounds how long a buffer holding
	// a COMMIT record may wait to fill before being written anyway. The
	// paper's experiments use pure group commit (0 = wait until full);
	// the lifetime-hint extension needs a timeout because old generations
	// see little traffic.
	GroupCommitTimeout sim.Time
	// Steal enables the UNDO/REDO extension (paper section 1: the
	// techniques "can be extended to the more general situation of
	// UNDO/REDO logging with little difficulty"): uncommitted updates may
	// be flushed to the stable database once their log records are durable
	// (write-ahead rule). Data records then carry before-images; an abort
	// rolls stolen versions back, and commit pays one extra stable-database
	// write per stolen object to clear its stolen marker. EL mode only.
	Steal bool
	// BroadNonGarbage models the paper's closing remark: "We originally
	// formulated EL for a database which retains a version number
	// timestamp with each object. For the more general case of no
	// timestamps in the database, a broader definition of non-garbage
	// records is required to ensure correct recovery; some log records may
	// need to wait longer before becoming garbage." With this set, a
	// committed update superseded by a newer committed update stays
	// non-garbage until the newer version reaches the stable database
	// (without per-object version numbers, recovery could not otherwise
	// order the two). Costs extra log space and bandwidth on hot objects.
	BroadNonGarbage bool
	// HintBoundaries enables the paper's section 6 placement extension:
	// a transaction beginning with expected lifetime L starts in the
	// oldest generation i such that L > HintBoundaries[i-1] (so
	// len(HintBoundaries) == len(GenSizes)-1). Nil disables hints.
	HintBoundaries []sim.Time
}

// WithDefaults fills unset fields with the paper's fixed parameters.
func (p Params) WithDefaults() Params {
	if p.BlockPayload == 0 {
		p.BlockPayload = DefaultBlockPayload
	}
	if p.BuffersPerGen == 0 {
		p.BuffersPerGen = DefaultBuffersPerGen
	}
	if p.ThresholdK == 0 {
		p.ThresholdK = DefaultThresholdK
	}
	if p.TxRecSize == 0 {
		p.TxRecSize = DefaultTxRecSize
	}
	if p.WriteLatency == 0 {
		p.WriteLatency = DefaultWriteLatency
	}
	if p.MemPerTx == 0 {
		switch p.Mode {
		case ModeFirewall:
			p.MemPerTx = MemPerTxFW
		case ModeHybrid:
			p.MemPerTx = MemPerTxHybrid
		default:
			p.MemPerTx = MemPerTxEL
		}
	}
	if p.MemPerObj == 0 && p.Mode == ModeEphemeral { // FW and the hybrid charge no LOT memory
		p.MemPerObj = MemPerObjEL
	}
	return p
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if len(p.GenSizes) == 0 {
		return fmt.Errorf("core: no generations configured")
	}
	if p.Mode == ModeFirewall {
		if len(p.GenSizes) != 1 {
			return fmt.Errorf("core: firewall mode requires exactly one generation, got %d", len(p.GenSizes))
		}
		if p.Recirculate {
			return fmt.Errorf("core: firewall mode cannot recirculate")
		}
	}
	for i, s := range p.GenSizes {
		if s < p.ThresholdK+2 {
			return fmt.Errorf("core: generation %d size %d below minimum %d (threshold k=%d plus fill and one data block)",
				i, s, p.ThresholdK+2, p.ThresholdK)
		}
	}
	if p.Steal && p.Mode != ModeEphemeral {
		return fmt.Errorf("core: the steal (UNDO/REDO) extension requires ephemeral-logging mode")
	}
	if p.HintBoundaries != nil && len(p.HintBoundaries) != len(p.GenSizes)-1 {
		return fmt.Errorf("core: %d hint boundaries for %d generations, want %d",
			len(p.HintBoundaries), len(p.GenSizes), len(p.GenSizes)-1)
	}
	if p.BlockPayload < p.TxRecSize {
		return fmt.Errorf("core: block payload %d cannot hold a tx record of %d bytes", p.BlockPayload, p.TxRecSize)
	}
	return nil
}

// startGen returns the generation a new transaction's records should enter,
// honouring lifetime hints when configured.
func (p Params) startGen(expected sim.Time) int {
	if p.HintBoundaries == nil || expected <= 0 {
		return 0
	}
	g := 0
	for g < len(p.HintBoundaries) && expected > p.HintBoundaries[g] {
		g++
	}
	return g
}
