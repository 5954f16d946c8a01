package main

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"os"

	"ellog/internal/blockdev"
	"ellog/internal/core"
	"ellog/internal/flushdisk"
	"ellog/internal/logrec"
	"ellog/internal/sim"
	"ellog/internal/workload"
)

// The traced pass measures every layer from outside: each crossing of one
// of the three seams the code already has — workload.LogManager,
// core.LogDevice, sim.Clock/sim.Source — plus the flush-completion callback
// pushes a span on one stack. All of a run's model code executes on one
// goroutine (the engine's or the loop's), so one stack per run is the
// "per-goroutine stack"; realdev's syncer goroutine is inside the device and
// is seen only through write→done.

// layer names the package a span's self time is charged to.
type layer uint8

const (
	layBench layer = iota // the decorators' own work inside a span (decoding written blocks)
	layGen                // transaction generator: workload.Generator in sim-*, the benchmark's driver in real-*
	layCore
	layDev // blockdev in sim-*, realdev in real-*
	layFlush
	numLayers
)

var layerNames = [numLayers]string{"bench", "gen", "core", "dev", "flushdisk"}

type spanName uint8

const (
	spDecode     spanName = iota // tracedDev decoding a block to find its COMMITs
	spGenTimer                   // generator timer handler (arrival, record, commit, pump)
	spOnDurable                  // generator's acknowledgement callback
	spKill                       // generator's kill callback
	spBegin                      // LogManager.BeginHinted
	spWriteData                  // LogManager.WriteData
	spCommit                     // LogManager.Commit
	spCoreTimer                  // core's own timers (group-commit timeout, retries)
	spDevDone                    // core's block-write completion
	spFlushed                    // core.Manager.Flushed
	spDevAlloc                   // LogDevice.Alloc
	spDevWrite                   // LogDevice.Write
	spFlushTimer                 // flushdisk drive timers
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"decode_block", "gen_timer", "on_durable", "on_kill",
	"begin", "write_data", "commit", "core_timer", "write_done", "flushed",
	"dev_alloc", "dev_write", "flush_timer",
}

// span is one closed seam crossing, kept only when a trace file was asked
// for.
type span struct {
	id, parent int32
	lay        layer
	name       spanName
	tx         uint64
	start, end int64
}

type openSpan struct {
	id    int32
	lay   layer
	name  spanName
	tx    uint64
	start int64
	child int64 // time covered by child spans
}

// maxKeptSpans bounds the spans held for -trace-out; the rest are still
// aggregated and their number is reported, never silently dropped.
const maxKeptSpans = 1 << 20

// spanTotals is what a tracer has aggregated so far; copying it is a
// snapshot.
type spanTotals struct {
	self   [numLayers]int64
	byName [numSpanNames]struct{ self, calls int64 }
	top    int64 // Σ duration of spans with no parent: time the goroutine was busy under a seam
}

// nsPerCall is the mean self time of one span name.
func (a spanTotals) nsPerCall(name spanName) float64 {
	return ratio(float64(a.byName[name].self), float64(a.byName[name].calls))
}

// tracer aggregates spans into per-layer and per-name self times as they
// close. Self time is a span's duration minus the part its children cover.
type tracer struct {
	stack  []openSpan
	nextID int32
	spanTotals

	keep    bool
	spans   []span
	dropped int64
}

func (t *tracer) enter(lay layer, name spanName, tx uint64) {
	t.nextID++
	t.stack = append(t.stack, openSpan{id: t.nextID, lay: lay, name: name, tx: tx, start: nowNS()})
}

func (t *tracer) exit() {
	end := nowNS()
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	dur := end - s.start
	self := dur - s.child
	t.self[s.lay] += self
	t.byName[s.name].self += self
	t.byName[s.name].calls++
	parent := int32(0)
	if n > 0 {
		t.stack[n-1].child += dur
		parent = t.stack[n-1].id
	} else {
		t.top += dur
	}
	if t.keep {
		if len(t.spans) < maxKeptSpans {
			t.spans = append(t.spans, span{id: s.id, parent: parent, lay: s.lay, name: s.name, tx: s.tx, start: s.start, end: end})
		} else {
			t.dropped++
		}
	}
}

// writeSpans appends the kept spans to w as JSON lines tagged with the
// workload they came from.
func (t *tracer) writeSpans(w *bufio.Writer, workloadName string) {
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"workload":%q,"id":%d,"parent":%d,"layer":%q,"name":%q,"tx":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			workloadName, s.id, s.parent, layerNames[s.lay], spanNames[s.name], s.tx, s.start, s.end)
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, `{"workload":%q,"dropped_spans":%d}`+"\n", workloadName, t.dropped)
	}
}

// commitStages splits each commit's latency at the two instants visible
// from the LogDevice seam: the Write that carried its COMMIT record and that
// write's completion. fill is Commit()→Write, device is Write→done, post is
// done→onDurable. Transaction ids are small and dense in every workload
// here, so the per-transaction instants live in a slice.
type commitStages struct {
	at                 []stageInstants
	fill, device, post []float64 // ms, one sample per acknowledged commit
	writeToDone        []float64 // ms, one sample per block write
}

type stageInstants struct{ commit, write, done int64 }

func (c *commitStages) slot(tid logrec.TxID) *stageInstants {
	for int(tid) >= len(c.at) {
		c.at = append(c.at, make([]stageInstants, len(c.at)+1024)...)
	}
	return &c.at[tid]
}

// commitsIn decodes a block image about to be written and returns the
// transactions whose COMMIT record it carries.
func commitsIn(data []byte) []logrec.TxID {
	recs, err := logrec.DecodeBlock(data)
	if err != nil {
		// core only writes blocks it just encoded; a block that does not
		// decode is a bug in one of the two, not an input condition.
		panic(fmt.Sprintf("bench: core wrote an undecodable block: %v", err))
	}
	var tids []logrec.TxID
	for _, r := range recs {
		if r.Kind == logrec.KindCommit {
			tids = append(tids, r.Tx)
		}
	}
	return tids
}

func (c *commitStages) durable(tid logrec.TxID, now int64) {
	s := c.slot(tid)
	if s.commit == 0 || s.write == 0 || s.done == 0 {
		return
	}
	c.fill = append(c.fill, millis(s.write-s.commit))
	c.device = append(c.device, millis(s.done-s.write))
	c.post = append(c.post, millis(now-s.done))
}

// traceKit is one run's decorators, sharing a tracer.
type traceKit struct {
	t      *tracer
	stages commitStages
	late   []float64 // µs a core or flushdisk timer fired after it was due
}

func newTraceKit(keepSpans bool) *traceKit {
	return &traceKit{t: &tracer{keep: keepSpans}}
}

// clock wraps src so every handler scheduled through it runs inside a span
// of the given layer. withLate also records how late each handler fired.
func (k *traceKit) clock(src sim.Source, lay layer, name spanName, withLate bool) *tracedClock {
	return &tracedClock{src: src, kit: k, lay: lay, name: name, withLate: withLate}
}

type tracedClock struct {
	src      sim.Source
	kit      *traceKit
	lay      layer
	name     spanName
	withLate bool
}

func (c *tracedClock) Now() sim.Time    { return c.src.Now() }
func (c *tracedClock) Rand() *rand.Rand { return c.src.Rand() }

func (c *tracedClock) At(at sim.Time, fn sim.Handler) sim.EventID {
	return c.src.At(at, func() {
		if c.withLate {
			c.kit.late = append(c.kit.late, float64(c.src.Now()-at))
		}
		c.kit.t.enter(c.lay, c.name, 0)
		fn()
		c.kit.t.exit()
	})
}

// After is At(now+d): exactly what sim.Engine.After and realtime.Loop.After
// do, so a decorated simulation schedules the identical event sequence.
func (c *tracedClock) After(d sim.Time, fn sim.Handler) sim.EventID {
	return c.At(c.src.Now()+d, fn)
}

var _ sim.Source = (*tracedClock)(nil)

// tracedLM decorates the generator→manager seam.
type tracedLM struct {
	lm  workload.LogManager
	kit *traceKit
}

func (l *tracedLM) BeginHinted(tid logrec.TxID, expected sim.Time) {
	l.kit.t.enter(layCore, spBegin, uint64(tid))
	l.lm.BeginHinted(tid, expected)
	l.kit.t.exit()
}

func (l *tracedLM) WriteData(tid logrec.TxID, oid logrec.OID, size int) logrec.LSN {
	l.kit.t.enter(layCore, spWriteData, uint64(tid))
	lsn := l.lm.WriteData(tid, oid, size)
	l.kit.t.exit()
	return lsn
}

func (l *tracedLM) Commit(tid logrec.TxID, onDurable func()) {
	l.kit.stages.slot(tid).commit = nowNS()
	l.kit.t.enter(layCore, spCommit, uint64(tid))
	l.lm.Commit(tid, func() {
		l.kit.stages.durable(tid, nowNS())
		l.kit.t.enter(layGen, spOnDurable, uint64(tid))
		onDurable()
		l.kit.t.exit()
	})
	l.kit.t.exit()
}

func (l *tracedLM) SetKillHandler(fn func(logrec.TxID)) {
	l.lm.SetKillHandler(func(tid logrec.TxID) {
		l.kit.t.enter(layGen, spKill, uint64(tid))
		fn(tid)
		l.kit.t.exit()
	})
}

var _ workload.LogManager = (*tracedLM)(nil)

// tracedDev decorates the manager→device seam.
type tracedDev struct {
	dev core.LogDevice
	kit *traceKit
}

func (d *tracedDev) Alloc(gen int) blockdev.BlockID {
	d.kit.t.enter(layDev, spDevAlloc, 0)
	id := d.dev.Alloc(gen)
	d.kit.t.exit()
	return id
}

func (d *tracedDev) Write(id blockdev.BlockID, data []byte, done func(err error)) {
	d.kit.t.enter(layBench, spDecode, 0)
	tids := commitsIn(data)
	d.kit.t.exit()
	issued := nowNS()
	for _, tid := range tids {
		d.kit.stages.slot(tid).write = issued
	}
	d.kit.t.enter(layDev, spDevWrite, 0)
	d.dev.Write(id, data, func(err error) {
		completed := nowNS()
		d.kit.stages.writeToDone = append(d.kit.stages.writeToDone, millis(completed-issued))
		for _, tid := range tids {
			d.kit.stages.slot(tid).done = completed
		}
		d.kit.t.enter(layCore, spDevDone, 0)
		done(err)
		d.kit.t.exit()
	})
	d.kit.t.exit()
}

func (d *tracedDev) Stats() blockdev.Stats { return d.dev.Stats() }

var _ core.LogDevice = (*tracedDev)(nil)

// flushed wraps the flush array's completion callback.
func (k *traceKit) flushed(fn func(flushdisk.Request)) func(flushdisk.Request) {
	return func(req flushdisk.Request) {
		k.t.enter(layCore, spFlushed, uint64(req.Tx))
		fn(req)
		k.t.exit()
	}
}

// traceFile is the -trace-out file. Each traced pass hands over its spans as
// soon as it ends and drops them: a million kept spans are 50 MB of live heap,
// and live heap paces the garbage collector — sim-search, whose simulations
// allocate 13 MB each beside almost no live data, ran 1.46 times faster with
// an earlier workload's spans still held. A nil traceFile discards.
type traceFile struct {
	f *os.File
	w *bufio.Writer
}

func createTraceFile(path string) (*traceFile, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &traceFile{f: f, w: bufio.NewWriter(f)}, nil
}

// take writes the result's kept spans, if there is a file and the pass was
// traced, and releases them either way.
func (tf *traceFile) take(workloadName string, res *result) {
	if tf != nil && res.tracer != nil {
		res.tracer.writeSpans(tf.w, workloadName)
	}
	res.tracer = nil
}

func (tf *traceFile) close() error {
	if tf == nil {
		return nil
	}
	if err := tf.w.Flush(); err != nil {
		tf.f.Close()
		return err
	}
	return tf.f.Close()
}
