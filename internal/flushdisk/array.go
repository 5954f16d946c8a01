// Package flushdisk models the disk drives holding the stable version of
// the database, to which committed updates are continuously flushed
// (paper sections 2.2 and 3).
//
// Following the paper's simulation model:
//   - The user specifies D drives and the time to write one block to any of
//     them; each updated object costs one separate disk write (negligible
//     locality of updates within a block).
//   - Objects are range partitioned evenly over the drives: for N objects
//     and D drives, the first N/D objects reside on drive 0, and so on.
//   - Each drive services pending flush requests in the order that
//     minimizes access time, where the access cost between two objects is
//     the difference of their oids and the range of oids assigned to a
//     drive wraps around (circular distance).
//   - The average oid distance between successively flushed objects is the
//     paper's locality metric: a large backlog makes flushing less random
//     and more sequential ("this negative feedback provides some
//     stability").
package flushdisk

import (
	"fmt"

	"ellog/internal/container"
	"ellog/internal/logrec"
	"ellog/internal/sim"
)

// Request asks for one committed update to be written to the stable
// database. Val is the object's new value; LSN orders versions.
type Request struct {
	Obj logrec.OID
	LSN logrec.LSN
	Val uint64
	Tx  logrec.TxID // writer, recorded into the stable database's version
	// Stolen marks the flush of a not-yet-committed update (steal policy);
	// Clean marks the commit-time write that clears a stolen marker.
	Stolen bool
	Clean  bool
}

// Stats summarizes flush activity.
type Stats struct {
	Flushes     uint64  // scheduled flushes completed
	Forced      uint64  // out-of-band force-flushes (random I/O at a log head)
	AvgDistance float64 // mean circular oid distance between successive flushes on a drive
	MaxPending  int     // peak backlog across the whole array
	PendingNow  int     // backlog at the time Stats was taken
	BusyFrac    float64 // mean drive utilization (busy time / elapsed / drives)
}

type drive struct {
	idx      int
	lo, span uint64
	pending  *container.Treap[Request]
	busy     bool
	serving  Request  // the request in service while busy
	freeAt   sim.Time // when the request in service is done
	served   func()   // completion of the request in service; built at the first kick
	debt     sim.Time // extra busy time owed by force-flushes taken out of band
	pos      uint64   // oid of the most recently flushed object
	started  bool     // pos is valid (at least one flush done)
	busySum  sim.Time
}

// Array is the set of flush drives.
type Array struct {
	clk        sim.Clock
	transfer   sim.Time
	numObjects uint64
	perDrive   uint64
	drives     []*drive
	onFlush    func(Request)

	pendingNow int
	maxPending int
	flushes    uint64
	forced     uint64
	distSum    float64
	distN      uint64

	// stall, when set, is consulted at each service start and may return
	// extra time the drive spends stalled before the transfer (fault
	// injection: a drive hiccup). nil means no stalls — the fault-free
	// model, byte for byte.
	stall func(drive int) sim.Time
}

// New builds an array of numDrives drives, each needing transfer time per
// object write. onFlush is invoked (on the clock's loop) when a flush
// completes; the logging manager uses it to apply the update to the stable
// database and garbage-collect the log record. In simulation mode clk is
// the run's *sim.Engine; the real-file backend passes its wall-clock loop,
// under which the modeled drives pay their service times in real time.
func New(clk sim.Clock, numDrives int, transfer sim.Time, numObjects uint64, onFlush func(Request)) *Array {
	if numDrives <= 0 {
		panic("flushdisk: need at least one drive")
	}
	if numObjects == 0 || numObjects%uint64(numDrives) != 0 {
		// The paper ignores the non-multiple case "for simplicity"; we
		// require it so the even range partitioning is exact.
		panic(fmt.Sprintf("flushdisk: numObjects (%d) must be a positive multiple of numDrives (%d)", numObjects, numDrives))
	}
	a := &Array{
		clk:        clk,
		transfer:   transfer,
		numObjects: numObjects,
		perDrive:   numObjects / uint64(numDrives),
		onFlush:    onFlush,
	}
	for i := 0; i < numDrives; i++ {
		a.drives = append(a.drives, &drive{
			idx:     i,
			lo:      uint64(i) * a.perDrive,
			span:    a.perDrive,
			pending: container.NewTreap[Request](uint64(i)*0x9e37 + 1),
		})
	}
	return a
}

// MaxRate returns the array's aggregate service capacity in flushes per
// second (e.g. 10 drives at 25 ms = 400/s; at 45 ms = 222/s, the paper's
// scarce-bandwidth setting).
func (a *Array) MaxRate() float64 {
	return float64(len(a.drives)) / a.transfer.Seconds()
}

// NumObjects reports the size of the object space the array serves.
func (a *Array) NumObjects() uint64 { return a.numObjects }

func (a *Array) driveFor(obj logrec.OID) *drive {
	idx := uint64(obj) / a.perDrive
	if idx >= uint64(len(a.drives)) {
		panic(fmt.Sprintf("flushdisk: oid %d outside object space %d", obj, a.numObjects))
	}
	return a.drives[idx]
}

// Enqueue adds (or replaces, if the object already has a pending request —
// a newer committed update supersedes an older unflushed one) a flush
// request and wakes the owning drive if it is idle.
func (a *Array) Enqueue(req Request) {
	d := a.driveFor(req.Obj)
	if d.pending.Put(uint64(req.Obj), req) {
		a.pendingNow++
		if a.pendingNow > a.maxPending {
			a.maxPending = a.pendingNow
		}
	}
	if !d.busy {
		a.kick(d, a.clk.Now())
	}
}

// Remove withdraws a pending request for obj (e.g. the update's record
// became garbage some other way). It reports whether a request was pending.
// A request already being serviced cannot be withdrawn; its completion is
// harmless because the stable database applies versions by LSN.
func (a *Array) Remove(obj logrec.OID) bool {
	d := a.driveFor(obj)
	if d.pending.Delete(uint64(obj)) {
		a.pendingNow--
		return true
	}
	return false
}

// Pending reports whether obj has a queued (not in-service) request.
func (a *Array) Pending(obj logrec.OID) bool {
	d := a.driveFor(obj)
	_, ok := d.pending.Get(uint64(obj))
	return ok
}

// ForceFlush services a request immediately, out of band: the paper's
// "small amount of random I/O" when an unflushed committed update reaches
// the head of a generation and cannot be forwarded or recirculated. The
// update is applied synchronously; the drive pays for the transfer by
// accruing busy-time debt that delays its queued work.
func (a *Array) ForceFlush(req Request) {
	d := a.driveFor(req.Obj)
	if d.pending.Delete(uint64(req.Obj)) {
		a.pendingNow--
	}
	a.forced++
	d.debt += a.transfer
	d.busySum += a.transfer
	a.onFlush(req)
}

// SetStall attaches a per-drive stall injector; nil detaches it. The
// function receives the drive index and returns extra stall time charged at
// the start of the next service on that drive (0 for no stall).
func (a *Array) SetStall(fn func(drive int) sim.Time) { a.stall = fn }

// kick starts service on an idle drive with work pending. The service
// begins at start: now for a drive found idle, the moment the previous
// request was done for a drive working through its queue — which is also
// now on a simulated clock, but on the wall-clock loop a completion handler
// runs late by whatever the loop was doing, and a drive must not idle for
// that long between two queued requests: the handler's lateness would
// otherwise set the array's capacity, not its transfer time.
func (a *Array) kick(d *drive, start sim.Time) {
	if d.busy || d.pending.Len() == 0 {
		return
	}
	req, ok := a.nearest(d)
	if !ok {
		return
	}
	d.pending.Delete(uint64(req.Obj))
	a.pendingNow--
	d.busy = true
	serviceTime := a.transfer + d.debt
	d.debt = 0
	if a.stall != nil {
		serviceTime += a.stall(d.idx)
	}
	d.busySum += a.transfer
	// A drive serves one request at a time, so the request rides in the
	// drive and one closure per drive serves every completion.
	d.serving = req
	if d.served == nil {
		d.served = func() { a.complete(d) }
	}
	d.freeAt = start + serviceTime
	a.clk.At(d.freeAt, d.served)
}

// complete finishes the request a drive had in service and starts the next.
func (a *Array) complete(d *drive) {
	req := d.serving
	if d.started {
		a.distSum += float64(circDist(d.pos, uint64(req.Obj), d.lo, d.span))
		a.distN++
	}
	d.pos = uint64(req.Obj)
	d.started = true
	d.busy = false
	a.flushes++
	a.onFlush(req)
	a.kick(d, d.freeAt)
}

// nearest picks the pending request whose oid is circularly closest to the
// drive's current head position.
func (a *Array) nearest(d *drive) (Request, bool) {
	if d.pending.Len() == 0 {
		return Request{}, false
	}
	if !d.started {
		// No position yet: take the smallest oid.
		_, req, _ := d.pending.Min()
		return req, true
	}
	var best Request
	bestDist := uint64(1) << 63
	consider := func(k uint64, v Request, ok bool) {
		if !ok {
			return
		}
		if dist := circDist(d.pos, k, d.lo, d.span); dist < bestDist {
			bestDist = dist
			best = v
		}
	}
	// Candidates: the successor and predecessor of pos, wrapping around the
	// drive's range — one of these is always the circular nearest.
	k, v, ok := d.pending.Ceiling(d.pos)
	consider(k, v, ok)
	k, v, ok = d.pending.Floor(d.pos)
	consider(k, v, ok)
	k, v, ok = d.pending.Min()
	consider(k, v, ok)
	k, v, ok = d.pending.Max()
	consider(k, v, ok)
	return best, true
}

// circDist is the circular distance between two oids within a drive's
// range [lo, lo+span): the paper's locality measure, where "the range of
// integers assigned to their disk drive wraps around".
func circDist(a, b, lo, span uint64) uint64 {
	ra, rb := a-lo, b-lo
	var d uint64
	if ra > rb {
		d = ra - rb
	} else {
		d = rb - ra
	}
	if d > span-d {
		d = span - d
	}
	return d
}

// PendingCount reports the current backlog across all drives.
func (a *Array) PendingCount() int { return a.pendingNow }

// Flushes reports scheduled flushes completed so far (cheap probe read).
func (a *Array) Flushes() uint64 { return a.flushes }

// Forced reports out-of-band force-flushes so far (cheap probe read).
func (a *Array) Forced() uint64 { return a.forced }

// Stats returns current aggregate statistics. elapsed must be the current
// simulated time (used for utilization).
func (a *Array) Stats(elapsed sim.Time) Stats {
	s := Stats{
		Flushes:    a.flushes,
		Forced:     a.forced,
		MaxPending: a.maxPending,
		PendingNow: a.pendingNow,
	}
	if a.distN > 0 {
		s.AvgDistance = a.distSum / float64(a.distN)
	}
	if elapsed > 0 {
		var busy sim.Time
		for _, d := range a.drives {
			busy += d.busySum
		}
		s.BusyFrac = busy.Seconds() / (elapsed.Seconds() * float64(len(a.drives)))
	}
	return s
}
