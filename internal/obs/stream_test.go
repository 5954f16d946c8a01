package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ellog/internal/sim"
	"ellog/internal/trace"
)

// wireEvents exercises every kind plus the field edge cases: zero
// tx/obj/lsn/n (omitted on the JSONL wire), gen -1, OID 0, and repeated
// timestamps.
func wireEvents() []trace.Event {
	var evs []trace.Event
	at := sim.Time(0)
	for k := trace.EvAppend; k <= trace.EvMove; k++ {
		evs = append(evs, trace.Event{
			At: at, Kind: k, Gen: int(k) % 3, Tx: 7, Obj: 123456, LSN: 42, N: 3,
		})
		at += 17 * sim.Millisecond
	}
	evs = append(evs,
		trace.Event{At: at, Kind: trace.EvSeal, Gen: -1},
		trace.Event{At: at, Kind: trace.EvAppend, Gen: 0, Tx: 1, Obj: 0, LSN: 1, N: 1},
		trace.Event{At: at, Kind: trace.EvCommit, Gen: 1, Tx: 1 << 40},
	)
	return evs
}

func TestJSONLRoundTrip(t *testing.T) {
	want := wireEvents()
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	for _, e := range want {
		s.Emit(e)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), `{"schema":"`+TraceSchema+`"}`+"\n") {
		t.Fatalf("missing schema header: %q", buf.String()[:40])
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestReadTraceFileReadsJSONL: the file reader is the strict JSONL decoder
// behind a path — a file in any other format is an error, not a guess.
func TestReadTraceFileReadsJSONL(t *testing.T) {
	want := wireEvents()
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl")
	if err := WriteJSONLFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("decoded events differ")
	}
	other := filepath.Join(dir, "t.bin")
	if err := os.WriteFile(other, []byte("ellogbin1\n\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTraceFile(other); err == nil {
		t.Fatal("a file that is not JSONL was accepted")
	}
	if _, err := ReadTraceFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("a missing file was accepted")
	}
}

func TestReadJSONLStrictness(t *testing.T) {
	for name, in := range map[string]string{
		"empty":          "",
		"missing header": `{"at":1,"kind":"seal","gen":0}` + "\n",
		"wrong schema":   `{"schema":"other/1"}` + "\n",
		"unknown kind":   `{"schema":"ellog-trace/1"}` + "\n" + `{"at":1,"kind":"warp","gen":0}` + "\n",
		"malformed line": `{"schema":"ellog-trace/1"}` + "\n" + `{"at":` + "\n",
		"second header":  `{"schema":"ellog-trace/1"}` + "\n" + `{"schema":"ellog-trace/1"}` + "\n",
	} {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
