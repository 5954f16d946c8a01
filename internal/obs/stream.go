package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"ellog/internal/logrec"
	"ellog/internal/sim"
	"ellog/internal/trace"
)

// TraceSchema names the JSONL trace wire format: one header line
// {"schema":"ellog-trace/1"} followed by one event object per line.
const TraceSchema = "ellog-trace/1"

// JSONLSink streams trace events as JSON lines through a buffered
// writer. Emit never allocates beyond the sink's reusable line buffer, so
// full runs can stream their event firehose without perturbing the
// simulation's allocation profile.
type JSONLSink struct {
	w    *bufio.Writer
	line []byte
	err  error
}

// NewJSONLSink wraps w and writes the schema header line.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriterSize(w, 1<<16), line: make([]byte, 0, 160)}
	_, s.err = s.w.WriteString(`{"schema":"` + TraceSchema + "\"}\n")
	return s
}

// Emit implements trace.Sink. At/kind/gen always appear; zero-valued
// tx/obj/lsn/n are omitted (0 is the unused sentinel for all four in
// event context: LSNs start at 1, TxIDs at 1, and N is kind-specific).
func (s *JSONLSink) Emit(e trace.Event) {
	if s.err != nil {
		return
	}
	b := s.line[:0]
	b = append(b, `{"at":`...)
	b = strconv.AppendInt(b, int64(e.At), 10)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","gen":`...)
	b = strconv.AppendInt(b, int64(e.Gen), 10)
	if e.Tx != 0 {
		b = append(b, `,"tx":`...)
		b = strconv.AppendUint(b, uint64(e.Tx), 10)
	}
	if e.Obj != 0 {
		b = append(b, `,"obj":`...)
		b = strconv.AppendUint(b, uint64(e.Obj), 10)
	}
	if e.LSN != 0 {
		b = append(b, `,"lsn":`...)
		b = strconv.AppendUint(b, uint64(e.LSN), 10)
	}
	if e.N != 0 {
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, int64(e.N), 10)
	}
	b = append(b, "}\n"...)
	s.line = b
	_, s.err = s.w.Write(b)
}

// Flush drains the buffer and reports any write error seen so far.
func (s *JSONLSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// jsonEvent mirrors a JSONL trace line for decoding.
type jsonEvent struct {
	Schema string `json:"schema"`
	At     int64  `json:"at"`
	Kind   string `json:"kind"`
	Gen    int    `json:"gen"`
	Tx     uint64 `json:"tx"`
	Obj    uint64 `json:"obj"`
	LSN    uint64 `json:"lsn"`
	N      int    `json:"n"`
}

// kindByName inverts Kind.String for decoding.
var kindByName = func() map[string]trace.Kind {
	m := make(map[string]trace.Kind)
	for k := trace.EvAppend; k <= trace.EvMove; k++ {
		m[k.String()] = k
	}
	return m
}()

// ReadJSONL decodes an ellog-trace/1 JSONL stream. The header line is
// required; unknown kinds or malformed lines are errors (the eltrace
// -validate mode relies on strictness here).
func ReadJSONL(r io.Reader) ([]trace.Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var out []trace.Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(line, &je); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if lineNo == 1 {
			if je.Schema != TraceSchema {
				return nil, fmt.Errorf("line 1: schema %q, want %q", je.Schema, TraceSchema)
			}
			continue
		}
		if je.Schema != "" {
			return nil, fmt.Errorf("line %d: unexpected schema line", lineNo)
		}
		k, ok := kindByName[je.Kind]
		if !ok {
			return nil, fmt.Errorf("line %d: unknown event kind %q", lineNo, je.Kind)
		}
		out = append(out, trace.Event{
			At: sim.Time(je.At), Kind: k, Gen: je.Gen,
			Tx: logrec.TxID(je.Tx), Obj: logrec.OID(je.Obj), LSN: logrec.LSN(je.LSN), N: je.N,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if lineNo == 0 {
		return nil, fmt.Errorf("empty trace: missing %q header", TraceSchema)
	}
	return out, nil
}

// ReadTraceFile loads an ellog-trace/1 JSONL trace.
func ReadTraceFile(path string) ([]trace.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSONL(f)
}

// WriteJSONLFile dumps events to path in the JSONL trace format —
// elchaos uses it to persist the event stream of a failing crash point.
func WriteJSONLFile(path string, events []trace.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := NewJSONLSink(f)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
