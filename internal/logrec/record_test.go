package logrec

import (
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"ellog/internal/sim"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindBegin:  "BEGIN",
		KindCommit: "COMMIT",
		KindAbort:  "ABORT",
		KindData:   "DATA",
		Kind(99):   "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindIsTx(t *testing.T) {
	if !KindBegin.IsTx() || !KindCommit.IsTx() || !KindAbort.IsTx() {
		t.Fatal("tx kinds not recognized as tx")
	}
	if KindData.IsTx() {
		t.Fatal("DATA recognized as tx kind")
	}
}

func TestNewTxRecordPanicsOnDataKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTxRecord(KindData) did not panic")
		}
	}()
	NewTxRecord(1, 0, KindData, 1, 8)
}

func TestNewDataRecordValue(t *testing.T) {
	r := NewDataRecord(77, 5*sim.Second, 3, 12345, 100)
	if r.Val != 77 {
		t.Fatalf("synthetic value = %d, want LSN 77", r.Val)
	}
	if r.Kind != KindData || r.Obj != 12345 || r.Size != 100 {
		t.Fatalf("unexpected record %v", r)
	}
}

func TestRecordString(t *testing.T) {
	d := NewDataRecord(1, 2, 3, 4, 100)
	if !strings.Contains(d.String(), "DATA") || !strings.Contains(d.String(), "obj=4") {
		t.Fatalf("data record String: %q", d.String())
	}
	c := NewTxRecord(2, 9, KindCommit, 3, 8)
	if !strings.Contains(c.String(), "COMMIT") {
		t.Fatalf("tx record String: %q", c.String())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := &Record{LSN: 42, Time: 1234567, Kind: KindData, Tx: 9, Obj: 9999999, Size: 100, Val: 42}
	buf := r.Append(nil)
	got, rest, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after decode", len(rest))
	}
	if *got != *r {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	if _, _, err := Decode(make([]byte, 10)); err == nil {
		t.Fatal("Decode of short buffer succeeded")
	}
}

func TestDecodeBadKind(t *testing.T) {
	r := NewDataRecord(1, 2, 3, 4, 100)
	buf := r.Append(nil)
	buf[16] = 200 // corrupt the kind byte
	if _, _, err := Decode(buf); err == nil {
		t.Fatal("Decode of corrupt kind succeeded")
	}
}

func TestBlockRoundTrip(t *testing.T) {
	var recs []*Record
	for i := 0; i < 19; i++ {
		if i%5 == 0 {
			recs = append(recs, NewTxRecord(LSN(i), sim.Time(i*10), KindBegin, TxID(i), 8))
		} else {
			recs = append(recs, NewDataRecord(LSN(i), sim.Time(i*10), TxID(i/5), OID(i*31), 100))
		}
	}
	buf := EncodeBlock(recs)
	got, err := DecodeBlock(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if *got[i] != *recs[i] {
			t.Fatalf("record %d mismatch: %v vs %v", i, got[i], recs[i])
		}
	}
}

func TestDecodeBlockEmpty(t *testing.T) {
	got, err := DecodeBlock(EncodeBlock(nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty block round trip: %v, %v", got, err)
	}
}

func TestDecodeBlockTrailingGarbage(t *testing.T) {
	buf := EncodeBlock([]*Record{NewDataRecord(1, 2, 3, 4, 100)})
	buf = append(buf, 0xFF)
	if _, err := DecodeBlock(buf); err == nil {
		t.Fatal("trailing garbage not detected")
	}
}

func TestDecodeBlockTruncated(t *testing.T) {
	buf := EncodeBlock([]*Record{NewDataRecord(1, 2, 3, 4, 100), NewDataRecord(2, 3, 4, 5, 100)})
	if _, err := DecodeBlock(buf[:len(buf)-8]); err == nil {
		t.Fatal("truncated block not detected")
	}
}

// TestBlockRoundTripProperty fuzzes whole blocks of random records.
func TestBlockRoundTripProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		n := rng.IntN(40)
		recs := make([]*Record, 0, n)
		for i := 0; i < n; i++ {
			r := &Record{
				LSN:  LSN(rng.Uint64()),
				Time: sim.Time(rng.Int64N(1 << 40)),
				Kind: Kind(1 + rng.IntN(4)),
				Tx:   TxID(rng.Uint64()),
				Obj:  OID(rng.Uint64()),
				Size: rng.IntN(2000),
				Val:  rng.Uint64(),
			}
			recs = append(recs, r)
		}
		got, err := DecodeBlock(EncodeBlock(recs))
		if err != nil || len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if *got[i] != *recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRecordCRCDetectsFlip(t *testing.T) {
	r := NewDataRecord(9, 3, 5, 77, 100)
	buf := r.Append(nil)
	for bit := 0; bit < 8; bit++ {
		mut := append([]byte(nil), buf...)
		mut[20] ^= 1 << bit
		if _, _, err := Decode(mut); err == nil {
			t.Fatalf("bit flip %d in record body not detected", bit)
		}
	}
}

func TestDecodeBlockCRCDetectsFlip(t *testing.T) {
	buf := EncodeBlock([]*Record{NewDataRecord(1, 2, 3, 4, 100), NewTxRecord(2, 3, KindCommit, 3, 8)})
	mut := append([]byte(nil), buf...)
	mut[len(mut)-1] ^= 0x80
	if _, err := DecodeBlock(mut); err == nil {
		t.Fatal("flipped bit in block body not detected")
	}
}

func TestDecodeBlockHugeCountNoHugeAlloc(t *testing.T) {
	// A corrupted count header must not drive the preallocation; the decode
	// should fail cleanly (CRC or short buffer) without a giant make().
	buf := EncodeBlock([]*Record{NewDataRecord(1, 2, 3, 4, 100)})
	for i := 0; i < 4; i++ {
		buf[i] = 0xFF
	}
	if _, err := DecodeBlock(buf); err == nil {
		t.Fatal("corrupt count header not detected")
	}
	if recs, intact := SalvageBlock(buf); intact {
		t.Fatalf("corrupt count header salvaged as intact (%d records)", len(recs))
	}
}

func TestSalvageBlockIntact(t *testing.T) {
	recs := []*Record{
		NewTxRecord(1, 10, KindBegin, 7, 8),
		NewDataRecord(2, 11, 7, 42, 100),
		NewTxRecord(3, 12, KindCommit, 7, 8),
	}
	got, intact := SalvageBlock(EncodeBlock(recs))
	if !intact || len(got) != len(recs) {
		t.Fatalf("intact block salvage: intact=%v, %d records (want %d)", intact, len(got), len(recs))
	}
	for i := range recs {
		if *got[i] != *recs[i] {
			t.Fatalf("record %d mismatch: %v vs %v", i, got[i], recs[i])
		}
	}
}

// TestSalvageBlockTornPrefix models a torn write: only a prefix of the new
// block reached disk, the rest is whatever the block held before. The
// salvage must return exactly the records whose bytes are fully in the
// prefix, and report the block as not intact.
func TestSalvageBlockTornPrefix(t *testing.T) {
	var recs []*Record
	for i := 1; i <= 10; i++ {
		recs = append(recs, NewDataRecord(LSN(i), sim.Time(i), 1, OID(i*7), 100))
	}
	full := EncodeBlock(recs)
	old := make([]byte, len(full)+40)
	for i := range old {
		old[i] = 0xA5 // stale bytes from the block's previous life
	}
	for cut := 0; cut <= len(full); cut += 13 {
		torn := append(append([]byte(nil), full[:cut]...), old[cut:]...)
		got, intact := SalvageBlock(torn)
		if intact {
			t.Fatalf("cut=%d: torn block reported intact", cut)
		}
		wantRecs := 0
		if cut >= blockHdrLen {
			wantRecs = (cut - blockHdrLen) / wireRecLen
		}
		if len(got) != wantRecs {
			t.Fatalf("cut=%d: salvaged %d records, want %d", cut, len(got), wantRecs)
		}
		for i, r := range got {
			if *r != *recs[i] {
				t.Fatalf("cut=%d: salvaged record %d mismatch: %v vs %v", cut, i, r, recs[i])
			}
		}
	}
}

func TestSalvageBlockGarbage(t *testing.T) {
	if recs, intact := SalvageBlock(nil); intact || len(recs) != 0 {
		t.Fatalf("nil buffer salvage: %v, %v", recs, intact)
	}
	junk := make([]byte, 300)
	for i := range junk {
		junk[i] = byte(i * 37)
	}
	if _, intact := SalvageBlock(junk); intact {
		t.Fatal("garbage buffer reported intact")
	}
}

func BenchmarkEncodeBlock(b *testing.B) {
	recs := make([]*Record, 20)
	for i := range recs {
		recs[i] = NewDataRecord(LSN(i), sim.Time(i), 1, OID(i), 100)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeBlock(recs)
	}
}

// TestAppendBlockMatchesEncodeBlock pins the scratch-buffer encoder to the
// allocating one, including buffer reuse across calls.
func TestAppendBlockMatchesEncodeBlock(t *testing.T) {
	recs := []*Record{
		NewTxRecord(1, 10, KindBegin, 7, 8),
		NewDataRecord(2, 11, 7, 42, 100),
		NewTxRecord(3, 12, KindCommit, 7, 8),
	}
	want := EncodeBlock(recs)
	var buf []byte
	for i := 0; i < 3; i++ { // reuse the same scratch repeatedly
		buf = AppendBlock(buf[:0], recs)
		if string(buf) != string(want) {
			t.Fatalf("AppendBlock pass %d diverges from EncodeBlock", i)
		}
	}
	got, err := DecodeBlock(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
}

// TestAppendBlockZeroAllocsOnReuse is the allocation regression gate for
// the block encode path.
func TestAppendBlockZeroAllocsOnReuse(t *testing.T) {
	recs := make([]*Record, 20)
	for i := range recs {
		recs[i] = NewDataRecord(LSN(i+1), 5, 1, OID(i), 100)
	}
	buf := AppendBlock(nil, recs) // grow once
	avg := testing.AllocsPerRun(200, func() {
		buf = AppendBlock(buf[:0], recs)
	})
	if avg != 0 {
		t.Fatalf("AppendBlock reuse allocates %v allocs/run, want 0", avg)
	}
}

func TestPoolRecyclesLIFOAndMarksFreeRecords(t *testing.T) {
	var p Pool
	a := p.NewDataRecord(1, 10, 7, 42, 100)
	b := p.NewTxRecord(2, 11, KindCommit, 7, 8)
	if want := NewDataRecord(1, 10, 7, 42, 100); *a != *want {
		t.Fatalf("pooled data record %+v, want %+v", a, want)
	}
	if want := NewTxRecord(2, 11, KindCommit, 7, 8); *b != *want {
		t.Fatalf("pooled tx record %+v, want %+v", b, want)
	}
	p.Put(a)
	p.Put(b)
	if a.LSN != 0 || b.LSN != 0 || !p.Zeroed() {
		t.Fatal("Put did not mark the records free")
	}
	// LIFO: the last record put is the first reused, fully re-initialised.
	c := p.NewTxRecord(3, 12, KindBegin, 8, 8)
	if c != b || *c != *NewTxRecord(3, 12, KindBegin, 8, 8) {
		t.Fatalf("reuse handed out %p %+v, want the last record put (%p), re-initialised", c, c, b)
	}
	a.LSN = 5 // a write through a stale pointer
	if p.Zeroed() {
		t.Fatal("Zeroed missed a free record written after Put")
	}
	a.LSN = 0
	defer func() {
		if recover() == nil {
			t.Fatal("second Put of the same record did not panic")
		}
	}()
	p.Put(a)
}
