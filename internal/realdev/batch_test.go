package realdev

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"testing"

	"ellog/internal/blockdev"
	"ellog/internal/core"
	"ellog/internal/flushdisk"
	"ellog/internal/logrec"
	"ellog/internal/obs"
	"ellog/internal/obs/live"
	"ellog/internal/realtime"
	"ellog/internal/sim"
	"ellog/internal/statedb"
)

// testSlot is openTestDevice's slot size.
const testSlot = 8192

// pwriteCall is one call through the device's pwrite seam. The seam runs on
// the syncer; a test reads the record after drainDevice, which has taken the
// loop's mailbox lock behind the syncer's Post.
type pwriteCall struct {
	off   int64
	bytes int
	cap   int // of the gather buffer: it only grows, so distinct values count its allocations
}

// recordPwrites puts a recorder in front of the device's real pwrite.
func recordPwrites(dev *Device) *[]pwriteCall {
	calls := new([]pwriteCall)
	real := dev.pwrite
	dev.pwrite = func(b []byte, off int64) (int, error) {
		*calls = append(*calls, pwriteCall{off: off, bytes: len(b), cap: cap(b)})
		return real(b, off)
	}
	return calls
}

// allocSlots allocates n slots of a generation and returns their ids, which
// are consecutive — as newGeneration leaves a ring.
func allocSlots(dev *Device, gen, n int) []blockdev.BlockID {
	ids := make([]blockdev.BlockID, n)
	for i := range ids {
		ids[i] = dev.Alloc(gen)
	}
	return ids
}

// readSlots returns the generation and payload ReadImage finds in each slot.
func readSlots(t *testing.T, dir string) map[blockdev.BlockID]string {
	t.Helper()
	im, err := ReadImage(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[blockdev.BlockID]string)
	im.RangeDurable(func(id blockdev.BlockID, gen int, data []byte) bool {
		got[id] = fmt.Sprintf("gen %d: %s", gen, data)
		return true
	})
	return got
}

// TestBatchIsOnePwritePerRun pins the write rule: a batch reaches the file
// as one pwrite per maximal run of slots adjacent in it, one fsync behind
// them, and the file afterwards is byte for byte the one the same blocks
// leave when each is written in a batch of its own.
func TestBatchIsOnePwritePerRun(t *testing.T) {
	loop, dev, dir := openTestDevice(t)
	refLoop, ref, refDir := openTestDevice(t)
	reg := live.NewRegistry()
	dev.SetMetrics(reg)
	calls := recordPwrites(dev)

	const ring = 8
	g0 := allocSlots(dev, 0, ring) // ids 1..8
	g1 := allocSlots(dev, 1, 4)    // ids 9..12
	allocSlots(ref, 0, ring)
	allocSlots(ref, 1, 4)

	type run struct {
		first blockdev.BlockID
		slots int
	}
	turns := []struct {
		name string
		ids  []blockdev.BlockID
		want []run
	}{
		{"eight adjacent slots", g0, []run{{g0[0], ring}}},
		{"across the ring wrap", []blockdev.BlockID{g0[ring-2], g0[ring-1], g0[0], g0[1]},
			[]run{{g0[ring-2], 2}, {g0[0], 2}}},
		{"two generations in turn", []blockdev.BlockID{g0[2], g0[3], g1[0], g1[1], g0[4]},
			[]run{{g0[2], 2}, {g1[0], 2}, {g0[4], 1}}},
		{"two generations alternating", []blockdev.BlockID{g0[5], g1[2], g0[6], g1[3]},
			[]run{{g0[5], 1}, {g1[2], 1}, {g0[6], 1}, {g1[3], 1}}},
		{"a run of one", []blockdev.BlockID{g0[7]}, []run{{g0[7], 1}}},
	}
	var wantPwrites uint64
	for n, turn := range turns {
		*calls = (*calls)[:0]
		for i, id := range turn.ids {
			// Lengths that shrink from turn to turn: a slot's padding must
			// be zeros, not what the pooled buffer framed last time.
			payload := []byte(fmt.Sprintf("turn %d block %d %s", n, id, bytes.Repeat([]byte{'x'}, 40*(len(turns)-n)+i)))
			fail := func(err error) {
				if err != nil {
					t.Errorf("%s: write failed: %v", turn.name, err)
				}
			}
			dev.Write(id, payload, fail)
			ref.Write(id, payload, fail)
			drainDevice(t, refLoop, ref) // the reference: every block a batch of its own
		}
		drainDevice(t, loop, dev)
		if rs := dev.RealStats(); rs.Batches != uint64(n+1) || rs.Fsyncs != rs.Batches {
			t.Fatalf("%s: %d batches, %d fsyncs after %d turns, want one of each per turn", turn.name, rs.Batches, rs.Fsyncs, n+1)
		}
		if len(*calls) != len(turn.want) {
			t.Fatalf("%s: %d pwrites %+v, want %d", turn.name, len(*calls), *calls, len(turn.want))
		}
		for i, w := range turn.want {
			c := (*calls)[i]
			if c.off != int64(w.first-1)*testSlot || c.bytes != w.slots*testSlot {
				t.Errorf("%s: pwrite %d is %d B at %d, want %d slots at slot %d", turn.name, i, c.bytes, c.off, w.slots, w.first)
			}
		}
		wantPwrites += uint64(len(turn.want))
	}
	if rs := dev.RealStats(); rs.Pwrites != wantPwrites {
		t.Errorf("RealStats.Pwrites = %d, want %d", rs.Pwrites, wantPwrites)
	}
	if got := reg.Snapshot().Value(obs.MetricPwrites); got != float64(wantPwrites) {
		t.Errorf("%s = %v, want %d", obs.MetricPwrites, got, wantPwrites)
	}
	if rs := ref.RealStats(); rs.Pwrites != rs.Batches || rs.MaxBatchBlocks != 1 {
		t.Fatalf("reference device: %d pwrites in %d batches (max %d blocks), want one block each", rs.Pwrites, rs.Batches, rs.MaxBatchBlocks)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	got, want := readSlots(t, dir), readSlots(t, refDir)
	if len(got) != ring+4 {
		t.Fatalf("image holds %d slots, want all %d", len(got), ring+4)
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("slot %d reads %q, written one batch each it reads %q", id, got[id], w)
		}
	}
	file, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	refFile, err := os.ReadFile(filepath.Join(refDir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, refFile) {
		t.Error("log.dat differs from the file the same blocks leave one batch each")
	}
	for off := 0; off < len(file); off += testSlot {
		_, payload, _ := parseFrame(file[off : off+testSlot])
		if pad := file[off+frameHdrLen+len(payload) : off+testSlot]; len(bytes.TrimLeft(pad, "\x00")) != 0 {
			t.Errorf("slot %d is not zero behind its frame", off/testSlot+1)
		}
	}
}

// TestSlotPaddingIsZeros: the loop hands the syncer only a slot's frame, and
// the syncer pads the slot with zeros in its gather buffer. A slot rewritten
// with a shorter frame than it held, and a run of two slots whose second
// frame is the shorter, must read back as their frames followed by zeros —
// not by the bytes of a longer frame a pooled slot buffer or the gather
// buffer carried before.
func TestSlotPaddingIsZeros(t *testing.T) {
	loop, dev, dir := openTestDevice(t)
	ids := allocSlots(dev, 0, 2)
	long, short := bytes.Repeat([]byte{'L'}, testSlot/2), []byte("short")
	for _, turn := range []struct {
		name     string
		payloads [][]byte // by slot; nil leaves the slot as it is
		want     []string // ReadImage's reading of each slot afterwards
	}{
		{"two long frames", [][]byte{long, long}, []string{"gen 0: " + string(long), "gen 0: " + string(long)}},
		{"slot 1 rewritten shorter", [][]byte{short, nil}, []string{"gen 0: short", "gen 0: " + string(long)}},
		{"a run, long then short", [][]byte{long, short}, []string{"gen 0: " + string(long), "gen 0: short"}},
	} {
		for i, p := range turn.payloads {
			if p != nil {
				dev.Write(ids[i], p, func(err error) {
					if err != nil {
						t.Errorf("%s: write failed: %v", turn.name, err)
					}
				})
			}
		}
		drainDevice(t, loop, dev)
		got := readSlots(t, dir)
		for i, w := range turn.want {
			if got[ids[i]] != w {
				t.Errorf("%s: slot %d reads %.40q…, want %.40q…", turn.name, ids[i], got[ids[i]], w)
			}
		}
		file, err := os.ReadFile(filepath.Join(dir, logName))
		if err != nil {
			t.Fatal(err)
		}
		for i := range ids {
			s := file[i*testSlot : (i+1)*testSlot]
			_, payload, _ := parseFrame(s)
			if pad := s[frameHdrLen+len(payload):]; len(bytes.TrimLeft(pad, "\x00")) != 0 {
				t.Errorf("%s: slot %d is not zero behind its frame", turn.name, ids[i])
			}
		}
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPwriteFailureFailsTheBatch: when a run's pwrite fails or comes back
// short, the runs behind it are not written, no fsync is issued, and every
// block of the batch — those already in the file included — completes with
// the error on the loop goroutine. The next batch is unaffected.
func TestPwriteFailureFailsTheBatch(t *testing.T) {
	injected := errors.New("injected: I/O error")
	for _, tc := range []struct {
		name string
		fail func(b []byte) (int, error)
		want error
	}{
		{"error", func([]byte) (int, error) { return 0, injected }, injected},
		{"short", func(b []byte) (int, error) { return len(b) - 1, nil }, io.ErrShortWrite},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loop, dev, dir := openTestDevice(t)
			real, n := dev.pwrite, 0
			dev.pwrite = func(b []byte, off int64) (int, error) {
				if n++; n == 2 { // the batch's second run
					return tc.fail(b)
				}
				return real(b, off)
			}
			calls := recordPwrites(dev)
			fsyncs := 0
			realSync := dev.fsync
			dev.fsync = func() error { fsyncs++; return realSync() }

			ids := allocSlots(dev, 0, 8)
			loopG := goid()
			var errs []error
			done := func(err error) {
				if g := goid(); g != loopG {
					t.Errorf("done ran on goroutine %s, loop is %s", g, loopG)
				}
				errs = append(errs, err)
			}
			// Three runs: slots 1-2, 5-6, 3.
			batch := []blockdev.BlockID{ids[0], ids[1], ids[4], ids[5], ids[2]}
			for _, id := range batch {
				dev.Write(id, []byte("doomed"), done)
			}
			drainDevice(t, loop, dev)
			if len(*calls) != 2 {
				t.Fatalf("%d pwrites, want the batch to stop at its second run", len(*calls))
			}
			if fsyncs != 0 {
				t.Fatalf("%d fsyncs behind a failed pwrite, want none", fsyncs)
			}
			if len(errs) != len(batch) {
				t.Fatalf("%d of %d completions fired", len(errs), len(batch))
			}
			for i, err := range errs {
				if !errors.Is(err, tc.want) {
					t.Errorf("completion %d got %v, want %v", i, err, tc.want)
				}
			}
			if st := dev.Stats(); st.Writes != uint64(len(batch)) || st.Failed != uint64(len(batch)) || st.Bytes != 0 {
				t.Fatalf("Stats = %+v, want %d writes, all failed", st, len(batch))
			}

			// The next batch goes through the same gather buffer.
			errs = errs[:0]
			dev.Write(ids[6], []byte("fine"), done)
			dev.Write(ids[7], []byte("fine too"), done)
			drainDevice(t, loop, dev)
			if len(errs) != 2 || errs[0] != nil || errs[1] != nil {
				t.Fatalf("batch after the failure completed with %v, want two successes", errs)
			}
			if c := (*calls)[2]; len(*calls) != 3 || c.bytes != 2*testSlot || c.cap != (*calls)[0].cap {
				t.Fatalf("batch after the failure: pwrites %+v, want one of two slots from the buffer the first run used", (*calls)[2:])
			}
			if fsyncs != 1 {
				t.Fatalf("%d fsyncs after the good batch, want 1", fsyncs)
			}
			if err := dev.Close(); err != nil {
				t.Fatal(err)
			}
			got := readSlots(t, dir)
			if got[ids[6]] != "gen 0: fine" || got[ids[7]] != "gen 0: fine too" {
				t.Fatalf("image after the good batch: %v", got)
			}
		})
	}
}

// TestClosedLoopIsOnePwritePerBatch drives a manager the way the benchmark's
// real-saturate does — 256 clients, each starting its next transaction from
// its commit acknowledgement, generations of 2048 and 512 blocks — and
// checks what the write rule is for: blocks claimed in ring order land in
// adjacent slots, so a batch of many blocks is one file write (two where the
// ring wraps, one more when a forwarded block rides along) and one fsync.
func TestClosedLoopIsOnePwritePerBatch(t *testing.T) {
	const clients = 256
	// The flush array is sized out of the way as real-saturate sizes it, which
	// holds when updates are dealt evenly over its drives.
	const drives, objects = 64, 1 << 20
	oid := func(i uint64) logrec.OID { return logrec.OID(i%drives*(objects/drives) + i/drives%(objects/drives)) }
	p := core.Params{
		Mode:               core.ModeEphemeral,
		GenSizes:           []int{2048, 512},
		Recirculate:        true,
		GroupCommitTimeout: 5 * sim.Millisecond,
	}.WithDefaults()
	loop := realtime.New(1)
	dev, err := Open(loop, t.TempDir(), Options{SlotBytes: SlotFor(p.BlockPayload, p.TxRecSize), Direct: DirectOff})
	if err != nil {
		t.Fatal(err)
	}
	var m *core.Manager
	flush := flushdisk.New(loop, drives, 20*sim.Microsecond, objects, func(req flushdisk.Request) { m.Flushed(req) })
	if m, err = core.New(loop, p, dev, flush, statedb.New()); err != nil {
		t.Fatal(err)
	}
	horizon := loop.Now() + 300*sim.Millisecond
	// An acknowledgement arrives inside the manager's completion handler,
	// so the client's next transaction starts from an event of its own.
	var next logrec.TxID
	ready, armed := clients, false
	var pump, ack func()
	pump = func() {
		armed = false
		for ; ready > 0 && loop.Now() < horizon; ready-- {
			next++
			tid := next
			m.Begin(tid)
			m.WriteData(tid, oid(2*uint64(tid)), 100)
			m.WriteData(tid, oid(2*uint64(tid)+1), 100)
			m.Commit(tid, ack)
		}
	}
	ack = func() {
		ready++
		if !armed {
			armed = true
			loop.After(0, pump)
		}
	}
	pump()
	loop.Run(horizon)
	live := &Live{Loop: loop, Dev: dev, LM: m}
	if err := live.Shutdown(); err != nil {
		t.Fatal(err)
	}
	rs := dev.RealStats()
	if st := m.Stats(); st.Commits != uint64(next) || st.Insufficient() || rs.Batches < 10 {
		t.Fatalf("%d of %d transactions committed in %d batches, insufficient=%v", st.Commits, next, rs.Batches, st.Insufficient())
	}
	if rs.Fsyncs != rs.Batches {
		t.Errorf("%d fsyncs for %d batches, want exactly one each", rs.Fsyncs, rs.Batches)
	}
	perBatch := float64(rs.Pwrites) / float64(rs.Batches)
	t.Logf("%d batches of %.1f blocks, %.3f pwrites per batch", rs.Batches, rs.BatchBlocksMean, perBatch)
	if perBatch > 1.1 || rs.BatchBlocksMean < 4 {
		t.Errorf("%.2f pwrites per batch of %.1f blocks (%d batches), want at most 1.1 for batches of many blocks",
			perBatch, rs.BatchBlocksMean, rs.Batches)
	}
}

// batchBlocks is the batch real-saturate ships: 256 clients' transactions
// fill 28 blocks.
const batchBlocks = 28

// TestWriteAllocBudget: in steady state a block costs no allocation on its
// way through Write and complete — its slot buffer comes from the pool, its
// batch is the previous one emptied — and the syncer's gather buffer, which
// only ever grows by doubling, is allocated at most ⌈log2(largest run)⌉+1
// times in a device's life.
func TestWriteAllocBudget(t *testing.T) {
	t.Run("Write and complete", func(t *testing.T) {
		_, dev, _ := openTestDevice(t)
		ids := allocSlots(dev, 0, batchBlocks)
		data := bytes.Repeat([]byte{'d'}, 500)
		done := func(error) {}
		for _, blocks := range []int{1, batchBlocks} {
			// One batch's life on the loop goroutine, without the syncer
			// in between: the writes of a turn, then their completion.
			turn := func() {
				for _, id := range ids[:blocks] {
					dev.Write(id, data, done)
				}
				b := dev.cur
				dev.cur = nil
				dev.inflight++
				dev.complete(b, nil, 0)
			}
			turn() // warm the pool, the batch and the stats maps
			if got := testing.AllocsPerRun(200, turn); got != 0 {
				t.Errorf("%v allocations per batch of %d blocks, budget 0", got, blocks)
			}
		}
		if st := dev.Stats(); st.Failed != 0 || st.Writes == 0 || dev.InFlight() != 0 {
			t.Fatalf("Stats = %+v with %d in flight, want every write completed", st, dev.InFlight())
		}
		if err := dev.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("gather buffer", func(t *testing.T) {
		loop, dev, _ := openTestDevice(t)
		calls := recordPwrites(dev)
		ids := allocSlots(dev, 0, batchBlocks)
		largest := 0
		for _, run := range []int{1, 1, 2, 3, 5, batchBlocks, batchBlocks, 7, 1, batchBlocks} {
			for _, id := range ids[:run] {
				dev.Write(id, []byte("block"), func(err error) {
					if err != nil {
						t.Errorf("write failed: %v", err)
					}
				})
			}
			drainDevice(t, loop, dev)
			largest = max(largest, run)
		}
		caps := make(map[int]bool)
		for _, c := range *calls {
			caps[c.cap] = true
		}
		if budget := bits.Len(uint(largest-1)) + 1; len(caps) > budget {
			t.Errorf("gather buffer allocated %d times (capacities %v), budget %d for a largest run of %d slots", len(caps), caps, budget, largest)
		}
		if last := (*calls)[len(*calls)-1]; last.cap < largest*testSlot {
			t.Errorf("gather buffer holds %d B after a run of %d slots", last.cap, largest)
		}
		if err := dev.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkDeviceBatch prices a block's trip through the device when blocks
// arrive as real-saturate delivers them: 28 adjacent slots written in one
// loop turn, the next 28 from the completion of the last. ns/op is ns per
// block, Write to done, on buffered I/O in a temp dir; with -benchmem B/op
// and allocs/op are per block too.
func BenchmarkDeviceBatch(b *testing.B) {
	slot := SlotFor(2000, 8)
	loop := realtime.New(1)
	dev, err := Open(loop, b.TempDir(), Options{SlotBytes: slot, Direct: DirectOff})
	if err != nil {
		b.Fatal(err)
	}
	ids := allocSlots(dev, 0, 4*batchBlocks) // a ring the batches never straddle
	data := bytes.Repeat([]byte{'d'}, 470)   // real-saturate's mean block image
	issued, acked, inBatch := 0, 0, 0
	var turn func()
	done := func(err error) {
		if err != nil {
			b.Errorf("write failed: %v", err)
		}
		acked++
		if inBatch--; inBatch == 0 {
			turn()
		}
	}
	turn = func() {
		inBatch = min(batchBlocks, b.N-issued)
		for i := 0; i < inBatch; i++ {
			dev.Write(ids[issued%len(ids)], data, done)
			issued++
		}
	}
	b.SetBytes(int64(slot))
	b.ReportAllocs()
	b.ResetTimer()
	turn()
	for acked < b.N {
		loop.Run(loop.Now() + 100*sim.Microsecond)
	}
	b.StopTimer()
	if rs := dev.RealStats(); rs.Pwrites != rs.Batches {
		b.Errorf("%d pwrites for %d batches of adjacent slots", rs.Pwrites, rs.Batches)
	}
	if err := dev.Close(); err != nil {
		b.Fatal(err)
	}
}
