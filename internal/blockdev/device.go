// Package blockdev models the disk device that holds the log. The paper's
// pragmatic constraints (section 2.2) are: information is written in fixed
// sized blocks (2048 bytes, 48 reserved for bookkeeping, 2000 of payload),
// a buffer's transfer to disk takes a conservative fixed
// tau_DiskWrite = 15 ms, and the log area is write-only storage — the
// logging manager never needs to read it back except during recovery.
//
// The device keeps the last durably written bytes of every block, which is
// exactly the crash image: records sitting in an unwritten buffer at crash
// time are lost, and a block whose write is still in flight retains its old
// contents (block writes are assumed atomic; see DESIGN.md).
//
// The fault-injection subsystem relaxes those assumptions on demand: an
// attached Injector can fail a write transiently, inflate its latency, or
// silently corrupt the durable bytes, and TearOldestInFlight breaks write
// atomicity at a crash point by letting only a prefix of the oldest
// in-flight write reach the image. With no injector attached the device
// behaves bit-for-bit as before.
package blockdev

import (
	"errors"
	"fmt"

	"ellog/internal/sim"
)

// BlockID names one disk block. IDs are allocated by the device and never
// reused, so a "freed" block's stale bytes remain readable until the block
// is physically rewritten — the property recirculation relies on.
// The zero BlockID is never allocated.
type BlockID uint64

type block struct {
	gen     int
	data    []byte // last durable contents; nil until first write completes
	writes  uint64
	pending bool
	// In-flight bookkeeping for the crash-image model under fault
	// injection: the bytes of the outstanding write and its global issue
	// sequence (TearOldestInFlight tears the lowest sequence — a single
	// log-disk head finishes writes in the order they were issued).
	inflight []byte
	seq      uint64
	// spare is the byte buffer the block's last write displaced (or a failed
	// write never deposited); the next write to the block copies into it
	// instead of allocating.
	spare []byte
}

// write is one outstanding block write. Completed writes go back to the
// device's free list with their fire closure intact, so issuing a write
// allocates nothing once as many are pooled as are ever in flight at once.
type write struct {
	b    *block
	buf  []byte
	f    WriteFault
	done func(err error)
	fire func() // d.complete(w), built once
}

// Stats aggregates device activity for the bandwidth figures.
type Stats struct {
	Writes       uint64 // attempted block writes (failed attempts re-count on retry)
	Bytes        uint64 // durable payload bytes
	Failed       uint64 // write attempts that returned a transient error
	WritesPerGen map[int]uint64
}

// ErrWriteFault is the transient error an injected fault surfaces through a
// write's completion callback. The block's previous contents are untouched.
var ErrWriteFault = errors.New("blockdev: injected transient write fault")

// WriteFault is an Injector's verdict on one block write. The zero value
// means a clean write.
type WriteFault struct {
	Fail  bool     // the write fails after its (possibly inflated) latency
	Extra sim.Time // added latency (slow I/O)
	// Silent corruption: if CorruptMask is nonzero, the durable image gets
	// data[CorruptOff] XOR CorruptMask while the write still reports
	// success. CorruptOff is clamped to the payload.
	CorruptOff  int
	CorruptMask byte
}

// Injector decides the fate of each block write. Implementations must be
// deterministic functions of their own seeded state; internal/fault.Plan is
// the canonical one.
type Injector interface {
	BlockWriteFault(gen, size int) WriteFault
}

// Device is the simulated log disk.
type Device struct {
	eng     *sim.Engine
	latency sim.Time
	nextID  BlockID
	blocks  map[BlockID]*block
	stats   Stats
	inj     Injector
	nextSeq uint64
	idle    []*write // completed writes, reused LIFO
}

// New returns a device whose block writes complete latency after they are
// issued (the paper fixes this at 15 ms).
func New(eng *sim.Engine, latency sim.Time) *Device {
	if latency < 0 {
		panic("blockdev: negative write latency")
	}
	return &Device{
		eng:     eng,
		latency: latency,
		blocks:  make(map[BlockID]*block),
		stats:   Stats{WritesPerGen: make(map[int]uint64)},
	}
}

// Latency returns the configured block write latency.
func (d *Device) Latency() sim.Time { return d.latency }

// SetInjector attaches a fault injector; nil detaches it. With no injector
// every write is clean and the device is byte-identical to the fault-free
// model.
func (d *Device) SetInjector(inj Injector) { d.inj = inj }

// Alloc reserves a new block belonging to the given generation and returns
// its ID. Allocation is pure bookkeeping; no simulated time passes.
func (d *Device) Alloc(gen int) BlockID {
	d.nextID++
	id := d.nextID
	d.blocks[id] = &block{gen: gen}
	return id
}

// Write issues an asynchronous write of data to block id. After the
// device's latency the bytes become durable — replacing the block's
// previous contents — and done (if non-nil) is invoked with nil. Multiple
// writes to the same block are legal (recirculation reuses blocks) but may
// not overlap: the log's circular discipline guarantees a block is not
// reissued while a write to it is outstanding, and the device asserts it.
//
// An attached Injector can make the write fail transiently: the block then
// keeps its previous contents and done receives ErrWriteFault. The failed
// attempt still counts as a write in the bandwidth stats — the disk did the
// work — so a retried block is charged twice, but only durable bytes count
// as Bytes.
func (d *Device) Write(id BlockID, data []byte, done func(err error)) {
	b, ok := d.blocks[id]
	if !ok {
		panic(fmt.Sprintf("blockdev: write to unallocated block %d", id))
	}
	if b.pending {
		panic(fmt.Sprintf("blockdev: overlapping writes to block %d", id))
	}
	var f WriteFault
	if d.inj != nil {
		f = d.inj.BlockWriteFault(b.gen, len(data))
	}
	b.pending = true
	w := d.newWrite()
	w.b, w.f, w.done = b, f, done
	w.buf = append(b.spare[:0], data...)
	if w.buf == nil {
		w.buf = []byte{} // an empty write still leaves durable (non-nil) contents
	}
	b.spare = nil
	b.inflight = w.buf
	d.nextSeq++
	b.seq = d.nextSeq
	d.eng.After(d.latency+f.Extra, w.fire)
}

func (d *Device) newWrite() *write {
	if n := len(d.idle); n > 0 {
		w := d.idle[n-1]
		d.idle = d.idle[:n-1]
		return w
	}
	w := &write{}
	w.fire = func() { d.complete(w) }
	return w
}

// complete lands an outstanding write: the bytes become the block's durable
// contents (or, on an injected failure, are dropped) and done is told.
func (d *Device) complete(w *write) {
	b, buf, f, done := w.b, w.buf, w.f, w.done
	w.b, w.buf, w.done = nil, nil, nil
	d.idle = append(d.idle, w)

	b.pending = false
	b.inflight = nil
	d.stats.Writes++
	d.stats.WritesPerGen[b.gen]++
	if f.Fail {
		d.stats.Failed++
		b.spare = buf
		if done != nil {
			done(ErrWriteFault)
		}
		return
	}
	if f.CorruptMask != 0 && len(buf) > 0 {
		off := f.CorruptOff
		if off < 0 {
			off = 0
		}
		off %= len(buf)
		buf[off] ^= f.CorruptMask
	}
	b.data, b.spare = buf, b.data
	b.writes++
	d.stats.Bytes += uint64(len(buf))
	if done != nil {
		done(nil)
	}
}

// TearOldestInFlight mutates the crash image as a torn write would: of all
// writes still in flight, the oldest-issued one (the single log-disk head
// services writes in issue order, so it is the one physically under way at
// the crash) deposits only its first frac of bytes; the rest of the block
// keeps its previous contents. frac is clamped to [0, 1]; frac 1 models a
// write that fully reached the platter whose completion was never
// acknowledged. It returns the torn block and false if nothing was in
// flight. Only crash-point harnesses call this — simulated time must not
// advance afterwards.
func (d *Device) TearOldestInFlight(frac float64) (BlockID, bool) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	var victim *block
	var victimID BlockID
	for id := BlockID(1); id <= d.nextID; id++ {
		b := d.blocks[id]
		if b == nil || !b.pending {
			continue
		}
		if victim == nil || b.seq < victim.seq {
			victim = b
			victimID = id
		}
	}
	if victim == nil {
		return 0, false
	}
	prefix := int(frac * float64(len(victim.inflight)))
	torn := make([]byte, 0, len(victim.inflight))
	torn = append(torn, victim.inflight[:prefix]...)
	if len(victim.data) > prefix {
		torn = append(torn, victim.data[prefix:]...)
	}
	victim.data = torn
	victim.inflight = nil
	return victimID, true
}

// Read returns the durable contents of a block (nil if never written) —
// used only by the recovery manager; the log is write-only in normal
// operation. The slice is the device's own and is good until the block is
// written again: a later write recycles the buffer an earlier one displaced.
func (d *Device) Read(id BlockID) []byte {
	b, ok := d.blocks[id]
	if !ok {
		panic(fmt.Sprintf("blockdev: read of unallocated block %d", id))
	}
	return b.data
}

// Gen returns the generation a block was allocated for.
func (d *Device) Gen(id BlockID) int {
	b, ok := d.blocks[id]
	if !ok {
		panic(fmt.Sprintf("blockdev: gen of unallocated block %d", id))
	}
	return b.gen
}

// Pending reports whether a write to the block is in flight.
func (d *Device) Pending(id BlockID) bool {
	b, ok := d.blocks[id]
	return ok && b.pending
}

// InFlight reports how many block writes are currently outstanding.
func (d *Device) InFlight() int {
	n := 0
	for _, b := range d.blocks {
		if b.pending {
			n++
		}
	}
	return n
}

// NumBlocks reports how many blocks have been allocated.
func (d *Device) NumBlocks() int { return len(d.blocks) }

// Writes reports the attempted block writes so far. Unlike Stats it
// allocates nothing, so probes can read it once per sample tick.
func (d *Device) Writes() uint64 { return d.stats.Writes }

// Stats returns a copy of the device counters.
func (d *Device) Stats() Stats {
	out := Stats{Writes: d.stats.Writes, Bytes: d.stats.Bytes, Failed: d.stats.Failed,
		WritesPerGen: make(map[int]uint64, len(d.stats.WritesPerGen))}
	for g, w := range d.stats.WritesPerGen {
		out.WritesPerGen[g] = w
	}
	return out
}

// RangeDurable calls fn for every block that has durable contents, in
// allocation order (deterministic). This is the recovery manager's read
// pass over the entire log area, including blocks the logging manager has
// logically freed but not yet overwritten. Like Read, it lends fn the
// device's own bytes.
func (d *Device) RangeDurable(fn func(id BlockID, gen int, data []byte) bool) {
	for id := BlockID(1); id <= d.nextID; id++ {
		b := d.blocks[id]
		if b == nil || b.data == nil {
			continue
		}
		if !fn(id, b.gen, b.data) {
			return
		}
	}
}
