package realdev

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ellog/internal/blockdev"
	"ellog/internal/metrics"
	"ellog/internal/obs"
	"ellog/internal/obs/live"
	"ellog/internal/realtime"
)

// DirectMode selects how the log file is opened.
type DirectMode string

const (
	// DirectAuto tries O_DIRECT and falls back to buffered I/O where the
	// filesystem refuses it (tmpfs returns EINVAL at open time) or the
	// platform has no such flag. The default.
	DirectAuto DirectMode = "auto"
	// DirectOn requires O_DIRECT; Open fails if it is unavailable.
	DirectOn DirectMode = "on"
	// DirectOff always uses buffered I/O (durability still comes from the
	// per-batch fsync). CI runs on tmpfs use this to make the fallback path
	// explicit rather than incidental.
	DirectOff DirectMode = "off"
)

// Options configures a real-file log device.
type Options struct {
	// SlotBytes is the on-disk slot size; it must be a positive multiple of
	// 4096 large enough for frameHdrLen plus the worst-case wire block
	// (SlotFor computes it). Required.
	SlotBytes int
	// Direct selects O_DIRECT handling; empty means DirectAuto.
	Direct DirectMode
}

// syncQueue is the syncer channel's buffer. The batching rule keeps at most
// one batch in flight and Seal may add one behind it; two slots let both be
// handed over in one loop turn, before the syncer has picked up the first,
// without blocking the loop.
const syncQueue = 2

func (o Options) withDefaults() (Options, error) {
	if o.SlotBytes <= 0 || o.SlotBytes%diskAlign != 0 {
		return o, fmt.Errorf("realdev: SlotBytes must be a positive multiple of %d, got %d", diskAlign, o.SlotBytes)
	}
	if o.Direct == "" {
		o.Direct = DirectAuto
	}
	if o.Direct != DirectAuto && o.Direct != DirectOn && o.Direct != DirectOff {
		return o, fmt.Errorf("realdev: unknown direct mode %q", o.Direct)
	}
	return o, nil
}

// RealStats reports what the simulated device cannot: measured I/O-path
// behavior of a real run.
type RealStats struct {
	Direct         bool    `json:"direct"`           // O_DIRECT actually in effect
	SlotBytes      int     `json:"slot_bytes"`       //
	Batches        uint64  `json:"batches"`          // fsync groups shipped
	Fsyncs         uint64  `json:"fsyncs"`           // == Batches (one fsync per group)
	Pwrites        uint64  `json:"pwrites"`          // file writes issued: one per run of adjacent slots in a batch
	PipelineStalls uint64  `json:"pipeline_stalls"`  // hand-overs that blocked on a full syncer queue
	MaxBatchBlocks int     `json:"max_batch_blocks"` // largest group shipped
	BatchMeanMS    float64 `json:"batch_mean_ms"`    // wall time per group, write+fsync
	BatchP50MS     float64 `json:"batch_p50_ms"`     //
	BatchP95MS     float64 `json:"batch_p95_ms"`     //
	BatchP99MS     float64 `json:"batch_p99_ms"`     //
	BatchP999MS    float64 `json:"batch_p999_ms"`    //
	FileBytes      int64   `json:"file_bytes"`       // log.dat size (slots allocated)

	// Group-commit batch-size distribution, from the per-batch histograms.
	BatchBlocksMean float64 `json:"batch_blocks_mean"`
	BatchBlocksP99  float64 `json:"batch_blocks_p99"`
	BatchBytesMean  float64 `json:"batch_bytes_mean"`
	BatchBytesP99   float64 `json:"batch_bytes_p99"`

	// FsyncHistMS is the fsync latency distribution bucketized on the
	// canonical obs.FsyncLatencyBucketsMS bounds — the same shape the
	// /metrics endpoint exposes.
	FsyncHistMS metrics.BucketSnapshot `json:"fsync_hist_ms"`
}

type slotWrite struct {
	id   blockdev.BlockID
	off  int64
	buf  []byte // the frame alone; writeRuns pads it out to the slot
	gen  int
	plen int
	done func(err error)
}

type batch struct {
	writes  []slotWrite
	bytes   int
	pwrites int // file writes the syncer issued for this batch; read in complete
}

// Device is a real-file core.LogDevice. Alloc and Write run on the loop
// goroutine; completions are delivered back to it via realtime.Loop.Post, so
// the manager keeps the single-threaded discipline it has under simulation.
// One background goroutine — the syncer — performs the pwrite+fsync work: one
// pwrite per run of slots adjacent in the file, then one fsync per batch.
//
// The device has no group-commit policy of its own: the logging manager alone
// decides when a block is written, and the device writes what it is handed.
// Blocks group only because a write cannot start while the previous fsync is
// running: whenever the syncer is free, everything pending goes to it at the
// end of the loop turn, so one batch carries the writes of a turn, or what
// queued while the previous fsync ran plus what its completion callbacks
// issued (commit pipelining as in BtrLog: ship what is queued when the
// previous fsync returns, ack only after durability). Handing over any
// earlier — inside Write, or ahead of the callbacks — lets a closed loop of
// clients settle into two alternating groups of arbitrary sizes, and
// throughput then depends on the split a run happens to fall into; at the
// end of the turn there is one way to settle, every client in each batch.
//
// Ordering, per block: the pwrite of the run holding its frame → fsync
// returns → completion Post → done(err) on the loop goroutine. A run is one
// write to the file, not one atomic unit: a crash may tear any slot of a run
// in flight, and each slot is still judged on its own, by its frame CRC and
// its block and record CRCs, as when every slot was its own write.
//
// Lifecycle: open until Close or Abandon, closed after; Write on a closed
// device is an invariant violation and panics. Neither Close nor Abandon runs
// the loop or a completion callback.
type Device struct {
	loop *realtime.Loop
	opt  Options
	dir  string
	f    *os.File

	direct bool

	// Loop-goroutine state.
	nextID   blockdev.BlockID
	gens     []int             // generation of each allocated slot, by id-1
	sized    int64             // file length already reserved via grow
	grow     func(int64) error // extends the file; d.f.Truncate outside tests
	growErr  error             // last failed extension; cleared when a retry succeeds
	cur      *batch            // writes waiting for the syncer to come free
	spare    *batch            // a completed batch, emptied, for cur to reuse
	handing  bool              // an end-of-turn hand-over is posted
	inflight int               // batches handed over but not yet completed
	pending  map[blockdev.BlockID]struct{}
	pool     [][]byte
	closed   bool

	stats       blockdev.Stats
	rs          RealStats
	batchLat    *metrics.Histogram // milliseconds per batch
	batchBlocks *metrics.Histogram // slots per dispatched batch
	batchBytes  *metrics.Histogram // payload bytes per dispatched batch

	// Live instruments (nil unless SetMetrics armed them); dispatch and
	// complete update them on the loop goroutine, HTTP readers load them
	// atomically.
	met *devMetrics

	// Syncer plumbing.
	ch     chan *batch
	wg     sync.WaitGroup
	gather []byte                           // syncer only: one run of slots, grown to the largest run seen
	pwrite func([]byte, int64) (int, error) // d.f.WriteAt outside tests
	fsync  func() error                     // d.f.Sync outside tests
}

// devMetrics bundles the device's live registry instruments.
type devMetrics struct {
	batches, fsyncs, pwrites  *live.Value
	stalls, inflight          *live.Value
	fsyncLat, blocksH, bytesH *live.Histogram
}

// SetMetrics registers the device's metrics on a live registry. Call
// before the run starts (registration is not what the hot path does).
func (d *Device) SetMetrics(reg *live.Registry) {
	if reg == nil {
		return
	}
	d.met = &devMetrics{
		batches:  reg.Counter(obs.MetricBatches, ""),
		fsyncs:   reg.Counter(obs.MetricFsyncs, ""),
		pwrites:  reg.Counter(obs.MetricPwrites, ""),
		stalls:   reg.Counter(obs.MetricPipelineStalls, ""),
		inflight: reg.Gauge(obs.MetricInflightBatches, ""),
		fsyncLat: reg.Histogram(obs.MetricFsyncLatencyMS, "", obs.FsyncLatencyBucketsMS),
		blocksH:  reg.Histogram(obs.MetricBatchBlocks, "", obs.BatchBlocksBuckets),
		bytesH:   reg.Histogram(obs.MetricBatchBytes, "", obs.BatchBytesBuckets),
	}
}

// Open creates (or truncates) a log directory and returns a device bound to
// the loop. The directory gains meta.json — recording the slot size for the
// image reader — and an empty log.dat.
func Open(loop *realtime.Loop, dir string, opt Options) (*Device, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	meta, _ := json.Marshal(metaFile{Version: 1, SlotBytes: opt.SlotBytes})
	if err := os.WriteFile(filepath.Join(dir, metaName), append(meta, '\n'), 0o644); err != nil {
		return nil, err
	}
	f, direct, err := openLog(filepath.Join(dir, logName), opt.Direct)
	if err != nil {
		return nil, err
	}
	d := &Device{
		loop:        loop,
		opt:         opt,
		dir:         dir,
		f:           f,
		direct:      direct,
		batchLat:    &metrics.Histogram{},
		batchBlocks: &metrics.Histogram{},
		batchBytes:  &metrics.Histogram{},
		ch:          make(chan *batch, syncQueue),
	}
	d.grow = f.Truncate
	d.pwrite = f.WriteAt
	d.fsync = f.Sync
	d.stats.WritesPerGen = make(map[int]uint64)
	d.pending = make(map[blockdev.BlockID]struct{})
	d.rs.Direct = direct
	d.rs.SlotBytes = opt.SlotBytes
	d.wg.Add(1)
	go d.syncer()
	return d, nil
}

func openLog(path string, mode DirectMode) (*os.File, bool, error) {
	flags := os.O_RDWR | os.O_CREATE | os.O_TRUNC
	if mode != DirectOff && oDirectFlag != 0 {
		f, err := os.OpenFile(path, flags|oDirectFlag, 0o644)
		if err == nil {
			return f, true, nil
		}
		if mode == DirectOn {
			return nil, false, fmt.Errorf("realdev: direct I/O required but unavailable: %w", err)
		}
	} else if mode == DirectOn {
		return nil, false, fmt.Errorf("realdev: direct I/O required but not supported on this platform")
	}
	f, err := os.OpenFile(path, flags, 0o644)
	return f, false, err
}

// Alloc reserves the next slot for a block of the given generation and
// grows the file to cover it, so direct writes never land past EOF.
//
// Alloc has no error return (the simulated device never fails), so a
// failed extension — ENOSPC, quota — is remembered in d.growErr and
// surfaces on the affected slot's Write completion instead of being
// swallowed: the manager already treats completion errors as failed
// writes. A later Alloc that extends successfully clears the condition.
func (d *Device) Alloc(gen int) blockdev.BlockID {
	d.nextID++
	d.gens = append(d.gens, gen)
	if need := int64(d.nextID) * int64(d.opt.SlotBytes); need > d.sized {
		// Extend in whole-slot steps; growing a file under concurrent
		// WriteAt from the syncer is safe.
		if err := d.grow(need); err != nil {
			d.growErr = fmt.Errorf("realdev: growing log to %d bytes: %w", need, err)
		} else {
			d.sized = need
			d.growErr = nil
		}
	}
	return d.nextID
}

// Write frames the block image into a slot buffer and adds it to the
// pending batch, which goes to the syncer at the end of this loop turn if the
// syncer is free and otherwise at the end of the turn in which the fsync in
// flight completes; done fires on the loop goroutine once the covering fsync
// has returned. The data slice is copied before Write returns (the manager
// reuses its encode buffer).
func (d *Device) Write(id blockdev.BlockID, data []byte, done func(err error)) {
	if d.closed {
		panic("realdev: Write after Close")
	}
	if id == 0 || id > d.nextID {
		panic(fmt.Sprintf("realdev: write to unallocated block %d", id))
	}
	if frameHdrLen+len(data) > d.opt.SlotBytes {
		panic(fmt.Sprintf("realdev: block image %d B overflows %d B slot (size slots with SlotFor)", len(data), d.opt.SlotBytes))
	}
	gen := d.gens[id-1]
	off := int64(id-1) * int64(d.opt.SlotBytes)
	if off+int64(d.opt.SlotBytes) > d.sized && d.growErr != nil {
		// The file never grew to cover this slot: fail the write now
		// rather than let a direct pwrite land past EOF or quietly rely
		// on the filesystem extending the file without the space check.
		// Completion stays asynchronous — done must not fire inside
		// Write — and the stats mirror a syncer-reported failure.
		err := d.growErr
		d.stats.Writes++
		d.stats.WritesPerGen[gen]++
		d.stats.Failed++
		d.pending[id] = struct{}{}
		d.loop.Post(func() {
			delete(d.pending, id)
			done(err)
		})
		return
	}
	buf := d.takeBuf()
	n := putFrame(buf, gen, data)
	d.pending[id] = struct{}{}
	w := slotWrite{
		id:   id,
		off:  off,
		buf:  buf[:n],
		gen:  gen,
		plen: len(data),
		done: done,
	}
	if d.cur == nil {
		d.cur, d.spare = d.spare, nil
	}
	if d.cur == nil {
		d.cur = &batch{}
	}
	d.cur.writes = append(d.cur.writes, w)
	d.cur.bytes += len(data)
	d.handOver()
}

// handOver posts the one hand-over of this loop turn — the handler the loop
// is running — if there is a pending batch and the syncer is free. Posted
// callbacks run ahead of the next timer event, so the batch leaves as soon
// as the current handler returns.
func (d *Device) handOver() {
	if d.cur == nil || d.inflight > 0 || d.handing {
		return
	}
	d.handing = true
	d.loop.Post(func() {
		d.handing = false
		if d.inflight == 0 { // Seal may have shipped the batch meanwhile
			d.dispatch()
		}
	})
}

// dispatch hands the pending batch, if any, to the syncer.
func (d *Device) dispatch() {
	b := d.cur
	if b == nil {
		return
	}
	d.cur = nil
	stalled := len(d.ch) == cap(d.ch)
	if stalled {
		d.rs.PipelineStalls++
	}
	d.inflight++
	d.rs.Batches++
	d.rs.Fsyncs++
	if len(b.writes) > d.rs.MaxBatchBlocks {
		d.rs.MaxBatchBlocks = len(b.writes)
	}
	d.batchBlocks.Observe(float64(len(b.writes)))
	d.batchBytes.Observe(float64(b.bytes))
	if d.met != nil {
		if stalled {
			d.met.stalls.Inc()
		}
		d.met.batches.Inc()
		d.met.fsyncs.Inc()
		d.met.inflight.Set(float64(d.inflight))
		d.met.blocksH.Observe(float64(len(b.writes)))
		d.met.bytesH.Observe(float64(b.bytes))
	}
	d.ch <- b
}

// Seal hands the pending batch, if any, to the syncer now, even with a batch
// in flight. Crash tests call it so that Abandon leaves those writes on disk
// but unacknowledged; a clean shutdown has no use for it.
func (d *Device) Seal() { d.dispatch() }

// InFlight reports writes issued but not yet acknowledged. Loop-goroutine
// only.
func (d *Device) InFlight() int { return len(d.pending) }

func (d *Device) syncer() {
	defer d.wg.Done()
	for b := range d.ch {
		t0 := time.Now()
		err := d.writeRuns(b)
		if err == nil {
			err = d.fsync()
		}
		ms := float64(time.Since(t0)) / float64(time.Millisecond)
		b := b
		d.loop.Post(func() { d.complete(b, err, ms) })
	}
}

// writeRuns puts the batch's slots in the file with one pwrite per maximal
// run of writes whose slots are adjacent (a generation's ring is allocated
// consecutively and claimed in ring order, so a batch is one run except
// where it wraps or mixes generations). Each frame is copied into the gather
// buffer and the rest of its slot zeroed there — the loop only frames, the
// padding is the syncer's — so the bytes on disk are those of one whole-slot
// pwrite per slot. The first failed or short pwrite stops the batch. Syncer
// goroutine only.
func (d *Device) writeRuns(b *batch) error {
	slot := d.opt.SlotBytes
	for ws := b.writes; len(ws) > 0; {
		n := 1
		for n < len(ws) && ws[n].off == ws[n-1].off+int64(slot) {
			n++
		}
		if n*slot > len(d.gather) {
			d.gather = allocAligned(max(n*slot, 2*len(d.gather)), d.direct)
		}
		run := d.gather[:n*slot]
		for i, w := range ws[:n] {
			s := run[i*slot : (i+1)*slot]
			clear(s[copy(s, w.buf):])
		}
		b.pwrites++
		m, err := d.pwrite(run, ws[0].off)
		if err == nil && m < len(run) {
			err = io.ErrShortWrite
		}
		if err != nil {
			return err
		}
		ws = ws[n:]
	}
	return nil
}

// complete runs on the loop goroutine: all stats mutation and completion
// callbacks happen here, never on the syncer. What queued while this fsync
// ran leaves at the end of the turn, with what the callbacks add to it.
func (d *Device) complete(b *batch, err error, ms float64) {
	d.inflight--
	d.handOver()
	d.batchLat.Observe(ms)
	d.rs.Pwrites += uint64(b.pwrites)
	if d.met != nil {
		d.met.fsyncLat.Observe(ms)
		d.met.pwrites.Add(float64(b.pwrites))
		d.met.inflight.Set(float64(d.inflight))
	}
	for _, w := range b.writes {
		delete(d.pending, w.id)
		d.stats.Writes++
		d.stats.WritesPerGen[w.gen]++
		if err != nil {
			d.stats.Failed++
		} else {
			d.stats.Bytes += uint64(w.plen)
		}
		d.putBuf(w.buf)
	}
	for _, w := range b.writes {
		w.done(err)
	}
	clear(b.writes) // drop the callbacks and buffers before the batch is reused
	*b = batch{writes: b.writes[:0]}
	d.spare = b
}

// Stats returns cumulative write statistics in the simulated device's
// shape, so core.Manager reporting works unchanged against a real file.
func (d *Device) Stats() blockdev.Stats {
	s := d.stats
	s.WritesPerGen = make(map[int]uint64, len(d.stats.WritesPerGen))
	for g, n := range d.stats.WritesPerGen {
		s.WritesPerGen[g] = n
	}
	return s
}

// RealStats returns measured I/O-path statistics.
func (d *Device) RealStats() RealStats {
	rs := d.rs
	rs.BatchMeanMS = d.batchLat.Mean()
	rs.BatchP50MS = d.batchLat.Quantile(0.50)
	rs.BatchP95MS = d.batchLat.Quantile(0.95)
	rs.BatchP99MS = d.batchLat.Quantile(0.99)
	rs.BatchP999MS = d.batchLat.Quantile(0.999)
	rs.BatchBlocksMean = d.batchBlocks.Mean()
	rs.BatchBlocksP99 = d.batchBlocks.Quantile(0.99)
	rs.BatchBytesMean = d.batchBytes.Mean()
	rs.BatchBytesP99 = d.batchBytes.Quantile(0.99)
	rs.FsyncHistMS = d.batchLat.Snapshot(obs.FsyncLatencyBucketsMS)
	rs.FileBytes = d.sized
	return rs
}

// Writes reports completed slot writes so far — the schema's log-writes
// probe, matching the simulated device's accessor.
func (d *Device) Writes() uint64 { return d.stats.Writes }

// PendingSlots returns the ids of slots with an issued but uncompleted
// write, in ascending order. After Seal followed by Abandon, these are
// exactly the slots whose contents reached the file (the syncer finishes
// dispatched batches; a write failed for want of file space never starts)
// but whose durability was never acknowledged to the manager — the slots a
// crash is allowed to tear. Loop-goroutine only.
func (d *Device) PendingSlots() []blockdev.BlockID {
	ids := make([]blockdev.BlockID, 0, len(d.pending))
	for id := range d.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Dir returns the device's log directory.
func (d *Device) Dir() string { return d.dir }

// Close closes the file of a drained device: the owner of the lifecycle
// (Live.Shutdown) has run the loop until InFlight reported zero. It neither
// runs the loop nor fires a completion; writes still unacknowledged are a
// failed drain, reported as an error after the crash path has released the
// syncer and the file.
func (d *Device) Close() error {
	n := len(d.pending)
	if err := d.Abandon(); err != nil {
		return err
	}
	if n > 0 {
		return fmt.Errorf("realdev: closed with %d writes unacknowledged", n)
	}
	return nil
}

// Abandon models a crash: the pending batch — writes the manager issued but
// the device never shipped — is dropped on the floor, batches already
// handed to the syncer finish their writes, and the file is closed without
// running any completion callbacks. The on-disk state afterwards is a
// legitimate crash image; tests typically truncate the tail further to
// manufacture a torn final block.
func (d *Device) Abandon() error {
	if d.closed {
		return nil
	}
	d.cur = nil
	d.closed = true
	close(d.ch)
	d.wg.Wait()
	return d.f.Close()
}

func (d *Device) takeBuf() []byte {
	if n := len(d.pool); n > 0 {
		b := d.pool[n-1]
		d.pool = d.pool[:n-1]
		return b
	}
	return allocAligned(d.opt.SlotBytes, d.direct)
}

func (d *Device) putBuf(b []byte) {
	if len(d.pool) < 64 {
		d.pool = append(d.pool, b[:cap(b)])
	}
}
