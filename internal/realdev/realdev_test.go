package realdev

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"ellog/internal/blockdev"
	"ellog/internal/core"
	"ellog/internal/logrec"
	"ellog/internal/realtime"
	"ellog/internal/recovery"
	"ellog/internal/sim"
	"ellog/internal/workload"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("the quick brown fox")
	buf := make([]byte, frameHdrLen+len(payload)+7)
	n := putFrame(buf, 2, payload)
	if n != frameHdrLen+len(payload) {
		t.Fatalf("putFrame length %d, want %d", n, frameHdrLen+len(payload))
	}
	gen, got, ok := parseFrame(buf)
	if !ok || gen != 2 || string(got) != string(payload) {
		t.Fatalf("parseFrame = (%d, %q, %v), want (2, %q, true)", gen, got, ok, payload)
	}

	// Torn tail: fewer bytes available than the header's payload length.
	cut := buf[:frameHdrLen+5]
	gen, got, ok = parseFrame(cut)
	if !ok || gen != 2 || string(got) != string(payload[:5]) {
		t.Fatalf("clamped parseFrame = (%d, %q, %v), want (2, %q, true)", gen, got, ok, payload[:5])
	}

	// Slots of zeros (never written) and corrupt headers are rejected.
	if _, _, ok := parseFrame(make([]byte, 64)); ok {
		t.Fatal("parseFrame accepted a zero slot")
	}
	bad := make([]byte, frameHdrLen+len(payload))
	putFrame(bad, 2, payload)
	bad[6] ^= 1 // flip a generation bit: header CRC must catch it
	if _, _, ok := parseFrame(bad); ok {
		t.Fatal("parseFrame accepted a corrupt header")
	}
	if _, _, ok := parseFrame(bad[:frameHdrLen-1]); ok {
		t.Fatal("parseFrame accepted a truncated header")
	}
}

func TestSlotForBounds(t *testing.T) {
	for _, tc := range []struct{ payload, minRec int }{
		{2000, 8}, {2000, 100}, {500, 1}, {1, 1},
	} {
		s := SlotFor(tc.payload, tc.minRec)
		if s%diskAlign != 0 {
			t.Errorf("SlotFor(%d,%d) = %d, not a multiple of %d", tc.payload, tc.minRec, s, diskAlign)
		}
		if s < frameHdrLen+logrec.MaxBlockWire(tc.payload, tc.minRec) {
			t.Errorf("SlotFor(%d,%d) = %d too small for worst-case wire block", tc.payload, tc.minRec, s)
		}
	}
}

// openTestDevice opens a buffered-I/O device with 8 KiB slots on a fresh
// loop and directory.
func openTestDevice(t *testing.T) (*realtime.Loop, *Device, string) {
	t.Helper()
	dir := t.TempDir()
	loop := realtime.New(1)
	dev, err := Open(loop, dir, Options{SlotBytes: 8192, Direct: DirectOff})
	if err != nil {
		t.Fatal(err)
	}
	return loop, dev, dir
}

// drainDevice runs the loop until every issued write is acknowledged. It
// never calls Seal: queued writes must ship on their own when the fsync ahead
// of them completes.
func drainDevice(t *testing.T, loop *realtime.Loop, dev *Device) {
	t.Helper()
	deadline := loop.Now() + 5*sim.Second
	for dev.InFlight() > 0 && loop.Now() < deadline {
		loop.Run(loop.Now() + sim.Millisecond)
	}
	if dev.InFlight() > 0 {
		t.Fatal("device failed to drain within 5 s")
	}
}

// writeTestBlocks drives a bare device through a few block writes and
// returns the records written per block id.
func writeTestBlocks(t *testing.T, loop *realtime.Loop, dev *Device) map[blockdev.BlockID][]*logrec.Record {
	t.Helper()
	blocks := make(map[blockdev.BlockID][]*logrec.Record)
	lsn := logrec.LSN(0)
	for i, gen := range []int{0, 0, 1} {
		id := dev.Alloc(gen)
		lsn++
		begin := logrec.NewTxRecord(lsn, loop.Now(), logrec.KindBegin, logrec.TxID(i+1), 8)
		lsn++
		data := logrec.NewDataRecord(lsn, loop.Now(), logrec.TxID(i+1), logrec.OID(42+i), 100)
		lsn++
		commit := logrec.NewTxRecord(lsn, loop.Now(), logrec.KindCommit, logrec.TxID(i+1), 8)
		recs := []*logrec.Record{begin, data, commit}
		blocks[id] = recs
		dev.Write(id, logrec.EncodeBlock(recs), func(err error) {
			if err != nil {
				t.Errorf("write %d failed: %v", id, err)
			}
		})
	}
	return blocks
}

func TestDeviceWriteAndReadImage(t *testing.T) {
	loop, dev, dir := openTestDevice(t)
	blocks := writeTestBlocks(t, loop, dev)
	dev.Alloc(1) // allocated but never written: must read back as skipped
	drainDevice(t, loop, dev)
	rs := dev.RealStats()
	if rs.Batches == 0 || rs.Fsyncs != rs.Batches {
		t.Fatalf("RealStats batches/fsyncs = %d/%d", rs.Batches, rs.Fsyncs)
	}
	st := dev.Stats()
	if st.Writes != 3 || st.Failed != 0 {
		t.Fatalf("Stats = %+v, want 3 writes, 0 failed", st)
	}
	if st.WritesPerGen[0] != 2 || st.WritesPerGen[1] != 1 {
		t.Fatalf("WritesPerGen = %v", st.WritesPerGen)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	im, err := ReadImage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if im.NumBlocks() != 3 || im.Skipped() != 1 {
		t.Fatalf("image: %d blocks, %d skipped; want 3 and 1", im.NumBlocks(), im.Skipped())
	}
	seen := 0
	im.RangeDurable(func(id blockdev.BlockID, gen int, data []byte) bool {
		want, ok := blocks[id]
		if !ok {
			t.Fatalf("image block %d never written", id)
		}
		recs, err := logrec.DecodeBlock(data)
		if err != nil {
			t.Fatalf("block %d does not decode: %v", id, err)
		}
		if len(recs) != len(want) {
			t.Fatalf("block %d has %d records, want %d", id, len(recs), len(want))
		}
		for i, r := range recs {
			if r.LSN != want[i].LSN || r.Kind != want[i].Kind {
				t.Fatalf("block %d record %d = %+v, want %+v", id, i, r, want[i])
			}
		}
		seen++
		return true
	})
	if seen != 3 {
		t.Fatalf("RangeDurable visited %d blocks, want 3", seen)
	}
}

func TestReadImageTornTail(t *testing.T) {
	loop, dev, dir := openTestDevice(t)
	writeTestBlocks(t, loop, dev)
	drainDevice(t, loop, dev)
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash model: the final slot's write was cut mid-payload at an
	// unaligned offset — the file ends inside the third block's second
	// record.
	logPath := filepath.Join(dir, logName)
	cut := int64(2*8192) + frameHdrLen + 8 + 65 + 13
	if err := os.Truncate(logPath, cut); err != nil {
		t.Fatal(err)
	}
	im, err := ReadImage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if im.NumBlocks() != 3 {
		t.Fatalf("torn image has %d blocks, want 3 (torn block salvaged, not dropped)", im.NumBlocks())
	}
	var last []byte
	im.RangeDurable(func(id blockdev.BlockID, gen int, data []byte) bool {
		if id == 3 {
			last = data
		}
		return true
	})
	recs, intact := logrec.SalvageBlock(last)
	if intact {
		t.Fatal("torn block reported intact")
	}
	if len(recs) != 1 {
		t.Fatalf("salvaged %d records from torn block, want exactly the 1 complete one", len(recs))
	}
	if recs[0].Kind != logrec.KindBegin {
		t.Fatalf("salvaged record kind = %v, want BEGIN", recs[0].Kind)
	}
}

func TestOpenRejectsBadOptions(t *testing.T) {
	loop := realtime.New(1)
	if _, err := Open(loop, t.TempDir(), Options{SlotBytes: 1000}); err == nil {
		t.Fatal("Open accepted unaligned SlotBytes")
	}
	if _, err := Open(loop, t.TempDir(), Options{SlotBytes: 4096, Direct: "sideways"}); err == nil {
		t.Fatal("Open accepted unknown direct mode")
	}
}

// realTestConfig is a small real-backend configuration: a fast workload
// (10 ms / 50 ms transactions at 400 TPS) against small generations, sized
// to finish in well under a second of wall time.
func realTestConfig(dir string, runtime sim.Time) RunConfig {
	return RunConfig{
		Seed: 7,
		Dir:  dir,
		LM: core.Params{
			Mode:               core.ModeEphemeral,
			GenSizes:           []int{16, 12, 10},
			Recirculate:        true,
			GroupCommitTimeout: 5 * sim.Millisecond,
		},
		Flush: core.FlushConfig{
			Drives:     4,
			Transfer:   2 * sim.Millisecond,
			NumObjects: 10_000,
		},
		Workload: workload.Config{
			Mix: workload.Mix{
				{Name: "short", Prob: 0.8, Lifetime: 10 * sim.Millisecond, NumRecords: 2, RecordSize: 100},
				{Name: "long", Prob: 0.2, Lifetime: 50 * sim.Millisecond, NumRecords: 4, RecordSize: 100},
			},
			ArrivalRate: 400,
			Runtime:     runtime,
			NumObjects:  10_000,
		},
	}
}

// checkRecovery runs the single-pass recovery against the crashed run's
// log directory and stable database, and checks it against the workload's
// ground truth:
//
//   - every object the oracle says was durably committed recovers at that
//     LSN or newer (a newer unacknowledged winner is legitimate: its COMMIT
//     was durable even though the crash beat the acknowledgement);
//   - every recovery winner is a transaction the workload actually issued a
//     COMMIT for, and never a killed one.
func checkRecovery(t *testing.T, live *Live, dir string) recovery.Result {
	t.Helper()
	im, err := ReadImage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if im.NumBlocks() == 0 {
		t.Fatal("image is empty")
	}
	recovered, rres, err := recovery.Recover(im, live.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	for oid, lsn := range live.Gen.Oracle() {
		v, ok := recovered.Get(oid)
		if !ok {
			t.Fatalf("acknowledged update lost: object %d, want LSN >= %d", oid, lsn)
		}
		if v.LSN < lsn {
			t.Fatalf("object %d recovered at LSN %d, acknowledged LSN %d", oid, v.LSN, lsn)
		}
	}
	started := live.Gen.Stats().Started
	for _, tid := range rres.WinnerTxs {
		info := live.Gen.TxInfo(tid)
		if !info.Known || uint64(tid) > started {
			t.Fatalf("recovery winner %d was never started", tid)
		}
		if !info.CommitIssued {
			t.Fatalf("recovery winner %d never issued a COMMIT", tid)
		}
		if info.Killed {
			t.Fatalf("recovery winner %d was killed", tid)
		}
	}
	return rres
}

func TestRunRealWorkloadAndRecover(t *testing.T) {
	dir := t.TempDir()
	cfg := realTestConfig(dir, 400*sim.Millisecond)
	live, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live.Loop.Run(cfg.Workload.Runtime)
	live.Drain()
	st := live.Gen.Stats()
	if st.Committed == 0 {
		t.Fatal("real run committed no transactions")
	}
	if st.Killed > 0 {
		t.Fatalf("real run killed %d transactions; generations undersized for the test workload", st.Killed)
	}
	rs := live.Dev.RealStats()
	if rs.Batches == 0 {
		t.Fatal("real run shipped no fsync batches")
	}
	if err := live.Shutdown(); err != nil {
		t.Fatal(err)
	}
	rres := checkRecovery(t, live, dir)
	if rres.Winners == 0 {
		t.Fatal("recovery found no winners after a committing run")
	}
}

// TestShutdownWithArmedTimer is the regression test for the shutdown race:
// a timer still armed at shutdown that would write to the log (here, as a
// manager group-commit timeout does, by sealing a buffer). Closing the device
// used to run the loop, so the timer fired into a closed device and panicked
// with "Write after Close". Armed before the drain it may fire while the
// device still accepts writes; armed after it must never fire at all.
func TestShutdownWithArmedTimer(t *testing.T) {
	for _, tc := range []struct {
		name       string
		afterDrain bool
	}{{"armed before drain", false}, {"armed after drain", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := realTestConfig(dir, 150*sim.Millisecond)
			live, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			live.Loop.Run(cfg.Workload.Runtime)
			if tc.afterDrain {
				live.Drain()
			}
			tid := logrec.TxID(live.Gen.Stats().Started + 1)
			live.Loop.After(0, func() {
				live.LM.Begin(tid)
				live.LM.Quiesce()
			})
			if err := live.Shutdown(); err != nil {
				t.Fatal(err)
			}
			if n := live.Dev.InFlight(); n != 0 {
				t.Fatalf("%d writes unacknowledged after a clean shutdown", n)
			}
			checkRecovery(t, live, dir)
		})
	}
}

// TestTornBlockRecovery crashes a real-file run mid-write and recovers it:
// the run is abandoned with writes synced to disk but never acknowledged,
// one of those unacknowledged slots is torn in place at an unaligned
// offset (its payload suffix scribbled, as a power failure tears a sector
// run), and the recovery pass must still reconstruct every acknowledged
// commit from what the file holds.
func TestTornBlockRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := realTestConfig(dir, 350*sim.Millisecond)
	live, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live.Loop.Run(cfg.Workload.Runtime)
	// Put a block in flight that the crash is certain to catch: transactions
	// that only BEGIN, one block's worth, so the manager seals and writes a
	// block here, on the loop goroutine, where no completion can run before
	// the crash. Seal hands it to the syncer even behind a batch in flight;
	// Abandon lets the syncer finish and delivers nothing.
	p := live.LM.Params()
	tid := logrec.TxID(live.Gen.Stats().Started)
	for i := 0; i <= p.BlockPayload/p.TxRecSize; i++ {
		tid++
		live.LM.Begin(tid)
	}
	pending := live.Dev.PendingSlots()
	live.Dev.Seal()
	if err := live.Dev.Abandon(); err != nil {
		t.Fatal(err)
	}
	if len(pending) == 0 {
		t.Fatal("no unacknowledged writes at crash; the torn-block scenario needs at least one")
	}
	if len(live.Gen.Oracle()) == 0 {
		t.Fatal("no acknowledged commits before the crash; nothing for the oracle to check")
	}

	// Tear the last unacknowledged slot: keep the frame header, the block
	// header and one whole record, then scribble the rest of the payload —
	// a torn write cut at an unaligned offset inside the second record.
	slotBytes := cfg.Device.SlotBytes
	if slotBytes == 0 {
		slotBytes = SlotFor(cfg.LM.WithDefaults().BlockPayload, minRecSize(cfg.LM.WithDefaults(), cfg.Workload.Mix))
	}
	tearID := pending[len(pending)-1]
	off := int64(tearID-1) * int64(slotBytes)
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	slot := make([]byte, slotBytes)
	if _, err := f.ReadAt(slot, off); err != nil {
		t.Fatal(err)
	}
	_, payload, ok := parseFrame(slot)
	if !ok {
		t.Fatalf("pending slot %d has no frame on disk", tearID)
	}
	cut := 8 + 65 + 13 // block header + first record + part of the second
	if len(payload) <= cut {
		cut = len(payload) / 2
	}
	scribble := make([]byte, len(payload)-cut)
	for i := range scribble {
		scribble[i] = 0xFF
	}
	if _, err := f.WriteAt(scribble, off+frameHdrLen+int64(cut)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rres := checkRecovery(t, live, dir)
	if rres.TornBlocks == 0 {
		t.Fatal("recovery saw no torn block after the tear")
	}
	if rres.Winners == 0 {
		t.Fatal("recovery found no winners")
	}
}

// TestAllocGrowFailureSurfacesOnWrite pins the ENOSPC contract: when the
// file cannot be extended to cover a new slot, the error must surface on
// that slot's Write completion (asynchronously, like any other failure)
// instead of being swallowed, and a later successful extension must
// clear the condition.
func TestAllocGrowFailureSurfacesOnWrite(t *testing.T) {
	loop, dev, _ := openTestDevice(t)
	defer dev.Close()

	realGrow := dev.grow
	full := errors.New("injected: no space left on device")
	dev.grow = func(int64) error { return full }

	id := dev.Alloc(0)
	var got error
	completed := false
	inWrite := true
	dev.Write(id, []byte("doomed"), func(err error) {
		if inWrite {
			t.Error("completion fired synchronously inside Write")
		}
		got, completed = err, true
	})
	inWrite = false
	drainDevice(t, loop, dev)
	if !completed {
		t.Fatal("write against an ungrown slot never completed")
	}
	if got == nil || !errors.Is(got, full) {
		t.Fatalf("completion error = %v, want wrapped %v", got, full)
	}
	if st := dev.Stats(); st.Failed != 1 || st.Writes != 1 {
		t.Fatalf("Stats = %+v, want 1 write, 1 failed", st)
	}

	// Space comes back: the next Alloc extends the file, clears the
	// error, and writes succeed again.
	dev.grow = realGrow
	id2 := dev.Alloc(0)
	completed = false
	dev.Write(id2, []byte("fine"), func(err error) {
		if err != nil {
			t.Errorf("post-recovery write failed: %v", err)
		}
		completed = true
	})
	drainDevice(t, loop, dev)
	if !completed {
		t.Fatal("post-recovery write never completed")
	}
	if st := dev.Stats(); st.Failed != 1 || st.Writes != 2 {
		t.Fatalf("Stats after recovery = %+v, want 2 writes, 1 failed", st)
	}
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine N [running]:") — enough to tell the loop goroutine from the
// syncer in a test.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestOneBatchingRule pins the device's only grouping rule: whenever the
// syncer is free, everything pending goes to it at the end of the loop turn.
// N writes in one turn therefore make exactly one batch; writes issued while
// that fsync runs wait for it and leave in one second batch together with
// what its completion callbacks issue; no Seal and no timer is involved, and
// every done fires on the loop goroutine after the fsync that covers it has
// returned.
func TestOneBatchingRule(t *testing.T) {
	const n = 6
	loop, dev, _ := openTestDevice(t)
	var synced atomic.Int32 // fsyncs that have returned
	entered, release := make(chan struct{}, 1), make(chan struct{})
	realSync := dev.fsync
	dev.fsync = func() error {
		if synced.Load() == 0 {
			entered <- struct{}{}
			<-release // hold the first fsync open
		}
		err := realSync()
		synced.Add(1)
		return err
	}
	loopG := goid()
	syncedAtDone := make([]int32, 0, n+2)
	write := func(then func()) {
		id := dev.Alloc(0)
		dev.Write(id, []byte("block"), func(err error) {
			if err != nil {
				t.Errorf("write %d failed: %v", id, err)
			}
			if g := goid(); g != loopG {
				t.Errorf("done for block %d ran on goroutine %s, loop is %s", id, g, loopG)
			}
			syncedAtDone = append(syncedAtDone, synced.Load())
			if then != nil {
				then()
			}
		})
	}
	// One turn, syncer idle: n writes, the first of which issues one more
	// from its completion callback.
	write(func() { write(nil) })
	for i := 1; i < n; i++ {
		write(nil)
	}
	if rs := dev.RealStats(); rs.Batches != 0 {
		t.Fatalf("%d batches handed over inside Write, want the hand-over at the end of the turn", rs.Batches)
	}
	if got := len(dev.PendingSlots()); got != n || dev.InFlight() != n {
		t.Fatalf("PendingSlots=%d InFlight=%d, want %d", got, dev.InFlight(), n)
	}
	loop.Run(loop.Now() + sim.Millisecond)
	<-entered
	if rs := dev.RealStats(); rs.Batches != 1 || rs.MaxBatchBlocks != n {
		t.Fatalf("after a turn of %d writes: %d batches (max %d blocks), want one batch of all of them",
			n, rs.Batches, rs.MaxBatchBlocks)
	}
	// While that fsync runs: one more write, which must wait for it.
	write(nil)
	loop.Run(loop.Now() + 2*sim.Millisecond)
	if rs := dev.RealStats(); rs.Batches != 1 || len(syncedAtDone) != 0 {
		t.Fatalf("%d batches, %d completions with the first fsync still running, want 1 and 0",
			rs.Batches, len(syncedAtDone))
	}
	close(release)
	drainDevice(t, loop, dev)
	if len(syncedAtDone) != n+2 {
		t.Fatalf("%d of %d completions fired", len(syncedAtDone), n+2)
	}
	// The write queued during the first fsync and the one issued by the
	// first batch's callback left together.
	rs := dev.RealStats()
	if rs.Batches != 2 || rs.Fsyncs != 2 || rs.MaxBatchBlocks != n || rs.BatchBlocksMean != float64(n+2)/2 {
		t.Fatalf("batches=%d fsyncs=%d max=%d mean=%v, want 2, 2, %d and %v",
			rs.Batches, rs.Fsyncs, rs.MaxBatchBlocks, rs.BatchBlocksMean, n, float64(n+2)/2)
	}
	for i, s := range syncedAtDone {
		want := int32(1)
		if i >= n { // the two blocks of the second batch
			want = 2
		}
		if s < want {
			t.Errorf("done %d fired with %d fsyncs returned, want at least %d", i, s, want)
		}
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteOrderingAndSeal holds an fsync open to check each arrow of the
// write path — the frame is in the file before fsync is called, no done
// fires while the fsync has not returned — and that Seal hands the queued
// remainder over behind the batch in flight without waiting for it.
func TestWriteOrderingAndSeal(t *testing.T) {
	loop, dev, dir := openTestDevice(t)
	entered, release := make(chan bool, 2), make(chan struct{})
	realSync := dev.fsync
	dev.fsync = func() error {
		slot := make([]byte, 8192)
		f, err := os.Open(filepath.Join(dir, logName))
		if err == nil {
			_, err = f.ReadAt(slot, 0)
			f.Close()
		}
		_, _, framed := parseFrame(slot)
		entered <- err == nil && framed
		<-release
		return realSync()
	}
	fired := 0
	done := func(err error) {
		if err != nil {
			t.Errorf("write failed: %v", err)
		}
		fired++
	}
	a, b := dev.Alloc(0), dev.Alloc(0)
	dev.Write(a, []byte("first"), done)
	loop.Run(loop.Now() + sim.Millisecond) // the turn ends: the block is handed over
	if !<-entered {
		t.Fatal("fsync was called before the block's frame was in the file")
	}
	dev.Write(b, []byte("second"), done)
	loop.Run(loop.Now() + 5*sim.Millisecond)
	if fired != 0 {
		t.Fatalf("%d completions fired while the covering fsync had not returned", fired)
	}
	if rs := dev.RealStats(); rs.Batches != 1 {
		t.Fatalf("%d batches with the syncer busy, want the second write queued", rs.Batches)
	}
	dev.Seal()
	if rs := dev.RealStats(); rs.Batches != 2 {
		t.Fatalf("%d batches after Seal, want the queued write handed over behind the one in flight", rs.Batches)
	}
	if p := dev.PendingSlots(); len(p) != 2 || p[0] != a || p[1] != b {
		t.Fatalf("PendingSlots = %v, want [%d %d]", p, a, b)
	}
	close(release)
	drainDevice(t, loop, dev)
	if fired != 2 {
		t.Fatalf("%d of 2 completions fired after the fsyncs returned", fired)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseIsNotADrain pins the closed state: Close on a device with writes
// unacknowledged reports them instead of running the loop, fires no
// completion, and a Write afterwards is an invariant violation.
func TestCloseIsNotADrain(t *testing.T) {
	loop, dev, _ := openTestDevice(t)
	fired := false
	loop.At(0, func() { fired = true }) // due: a Close that ran the loop would fire it
	id := dev.Alloc(0)
	dev.Write(id, []byte("unacked"), func(error) { fired = true })
	if err := dev.Close(); err == nil {
		t.Fatal("Close with an unacknowledged write returned nil")
	}
	if fired {
		t.Fatal("Close ran the loop or a completion callback")
	}
	defer func() {
		if r := recover(); r != "realdev: Write after Close" {
			t.Fatalf("Write after Close: recovered %v, want the invariant panic", r)
		}
	}()
	dev.Write(id, []byte("late"), func(error) {})
}
