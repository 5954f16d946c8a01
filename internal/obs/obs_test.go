package obs

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ellog/internal/core"
	"ellog/internal/harness"
	"ellog/internal/logrec"
	"ellog/internal/sim"
	"ellog/internal/trace"
	"ellog/internal/workload"
)

// obsBase is a small EL run that commits and fully flushes plenty of
// transactions within a couple of simulated seconds.
func obsBase(seed uint64) harness.Config {
	return harness.Config{
		Seed: seed,
		LM: core.Params{
			Mode:     core.ModeEphemeral,
			GenSizes: []int{6, 8},
		},
		Flush: core.FlushConfig{Drives: 2, Transfer: 5 * sim.Millisecond, NumObjects: 1000},
		// The long type keeps records live past generation 0's turnover so
		// forwarding (EvMove, gen-1 activity) shows up in every trace.
		Workload: workload.Config{
			Mix: workload.Mix{
				{Name: "short", Prob: 0.8, Lifetime: 300 * sim.Millisecond, NumRecords: 2, RecordSize: 200},
				{Name: "long", Prob: 0.2, Lifetime: 1500 * sim.Millisecond, NumRecords: 3, RecordSize: 200},
			},
			ArrivalRate: 120,
			Runtime:     2 * sim.Second,
			NumObjects:  1000,
		},
	}
}

// capturedRun executes obsBase past its runtime (so flushes drain) with a
// capture sink and a sampler attached, returning everything tests need.
func capturedRun(t *testing.T, seed uint64) (*harness.Live, *Capture, *Sampler) {
	t.Helper()
	cfg := obsBase(seed)
	live, err := harness.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capture := &Capture{}
	live.Setup.LM.SetTracer(capture)
	s := NewSampler(live.Setup.Eng, 50*sim.Millisecond, 64)
	RegisterProbes(s, StandardProbes(SetupTargets(live.Setup)))
	s.Start()
	live.Setup.Eng.Run(cfg.Workload.Runtime + 10*sim.Second)
	if len(capture.Events) == 0 {
		t.Fatal("run emitted no trace events")
	}
	return live, capture, s
}

// TestTracedRunStatsByteIdentical is the contract the whole layer hangs
// on (and the check CI's observability job runs): attaching a capture
// sink and a ticking sampler must not change a run's results at all.
func TestTracedRunStatsByteIdentical(t *testing.T) {
	cfg := obsBase(3)
	plain, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	live, err := harness.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capture := &Capture{}
	live.Setup.LM.SetTracer(capture)
	s := NewSampler(live.Setup.Eng, 50*sim.Millisecond, 64)
	RegisterProbes(s, StandardProbes(SetupTargets(live.Setup)))
	s.Start()
	live.Setup.Eng.Run(cfg.Workload.Runtime)
	traced := harness.Result{LM: live.Setup.LM.Stats(), Workload: live.Gen.Stats()}

	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("observability changed the run's results:\nplain  %+v\ntraced %+v", plain, traced)
	}
	if len(capture.Events) == 0 || s.Ticks() == 0 {
		t.Fatal("trace or sampler was not actually live")
	}
}

func TestStandardProbeNames(t *testing.T) {
	_, _, s := capturedRun(t, 1)
	for _, name := range []string{
		`ellog_gen_used_blocks{gen="0"}`, `ellog_gen_size_blocks{gen="1"}`,
		`ellog_gen_live_records{gen="0"}`,
		"ellog_lot_entries", "ellog_ltt_entries", "ellog_mem_bytes",
		"ellog_log_blocks", "ellog_commits_total", "ellog_appended_bytes_total",
		"ellog_write_retries_total", "ellog_killed_total",
		"ellog_log_writes_total", "ellog_flush_backlog",
		"ellog_flushes_total", "ellog_forced_flushes_total",
	} {
		sr, ok := s.Find(name)
		if !ok || sr.Name != name {
			t.Fatalf("standard probe %q missing (got %q)", name, sr.Name)
		}
	}
	// Cumulative counters must be nondecreasing across points.
	writes, _ := s.Find("ellog_log_writes_total")
	for i := 1; i < len(writes.Points); i++ {
		if writes.Points[i].Min < writes.Points[i-1].Max {
			t.Fatalf("ellog_log_writes_total not monotonic at point %d", i)
		}
	}
	if last := writes.Points[len(writes.Points)-1]; last.Max == 0 {
		t.Fatal("ellog_log_writes_total probe never saw a block write")
	}
}

func TestMetricNameHelpers(t *testing.T) {
	if got := MetricName("ellog_gen_used_blocks", "gen", "0"); got != `ellog_gen_used_blocks{gen="0"}` {
		t.Fatalf("MetricName = %q", got)
	}
	if got := MetricName("x"); got != "x" {
		t.Fatalf("bare MetricName = %q", got)
	}
	if got := MetricName("x", "k", `a"b\c`+"\n"); got != `x{k="a\"b\\c\n"}` {
		t.Fatalf("escaped MetricName = %q", got)
	}
	if got := WithLabel("ellog_lot_entries", "lp", "2"); got != `ellog_lot_entries{lp="2"}` {
		t.Fatalf("WithLabel bare = %q", got)
	}
	if got := WithLabel(`ellog_gen_used_blocks{gen="0"}`, "lp", "2"); got != `ellog_gen_used_blocks{gen="0",lp="2"}` {
		t.Fatalf("WithLabel labelled = %q", got)
	}
	fam, labels := SplitName(`ellog_gen_used_blocks{gen="0",lp="2"}`)
	if fam != "ellog_gen_used_blocks" || labels != `gen="0",lp="2"` {
		t.Fatalf("SplitName = %q, %q", fam, labels)
	}
	if fam, labels := SplitName("ellog_lot_entries"); fam != "ellog_lot_entries" || labels != "" {
		t.Fatalf("SplitName bare = %q, %q", fam, labels)
	}
}

func TestExplainReconstructsLifecycle(t *testing.T) {
	_, capture, _ := capturedRun(t, 2)
	ix := BuildIndex(capture.Events)
	if ix.NumTx() == 0 {
		t.Fatal("no transactions in trace")
	}
	lives := ix.Lifetimes()
	if len(lives) != ix.NumTx() {
		t.Fatalf("Lifetimes returned %d of %d transactions", len(lives), ix.NumTx())
	}
	var full *TxLife
	for i := range lives {
		l := &lives[i]
		if l.HasT1 && l.HasT2 && l.HasT3 && l.HasT4 && l.HasT5 && !l.Killed {
			full = l
			break
		}
	}
	if full == nil {
		t.Fatal("no transaction reconstructed with all five epochs")
	}
	if !(full.T1 <= full.T2 && full.T2 <= full.T3 && full.T3 <= full.T4 && full.T4 <= full.T5) {
		t.Fatalf("epochs out of order: t1=%v t2=%v t3=%v t4=%v t5=%v",
			full.T1, full.T2, full.T3, full.T4, full.T5)
	}
	if len(full.Records) == 0 {
		t.Fatal("complete transaction has no data records")
	}
	for _, r := range full.Records {
		if !r.Flushed {
			t.Fatalf("t5 set but record lsn %d not flushed", r.LSN)
		}
		if r.FlushAt > full.T5 {
			t.Fatalf("record flushed at %v after t5=%v", r.FlushAt, full.T5)
		}
	}

	out, ok := ix.FormatTx(full.Tx)
	if !ok {
		t.Fatal("FormatTx failed for a known transaction")
	}
	for _, want := range []string{"t1 BEGIN appended", "t4 COMMIT durable", "t5 fully flushed", "total t1→t5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatTx output missing %q:\n%s", want, out)
		}
	}
	obj := full.Records[0].Obj
	oout, ok := ix.FormatObj(obj)
	if !ok || !strings.Contains(oout, "append") {
		t.Fatalf("FormatObj(%d) = %q, %v", obj, oout, ok)
	}
	if _, ok := ix.Tx(logrec.TxID(1 << 60)); ok {
		t.Fatal("unknown transaction reconstructed")
	}

	sum := FormatSummary(capture.Events)
	for _, want := range []string{"events", "append", "seal", "gen 0:"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
	if FormatSummary(nil) != "empty trace\n" {
		t.Fatal("empty summary wrong")
	}
}

func TestObserverEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cfg := obsBase(4)
	live, err := harness.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capture := &Capture{}
	tracePath := filepath.Join(dir, "trace.jsonl")
	probesPath := filepath.Join(dir, "probes.json")
	o, err := New(live.Setup.Eng, SetupTargets(live.Setup), Config{
		TracePath:  tracePath,
		ProbesPath: probesPath, SampleInterval: 50 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	live.Setup.LM.SetTracer(Multi(capture, o.Sink()))
	live.Setup.Eng.Run(cfg.Workload.Runtime)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadTraceFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	// The file holds the run's event stream, whole and in order.
	if len(events) == 0 || !reflect.DeepEqual(events, capture.Events) {
		t.Fatalf("trace file holds %d events, the run emitted %d", len(events), len(capture.Events))
	}
	if _, series, err := ReadProbesFile(probesPath); err != nil || len(series) == 0 {
		t.Fatalf("probes file: %d series, err %v", len(series), err)
	}
}

func TestObserverDisarmed(t *testing.T) {
	o, err := New(nil, ProbeTargets{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if o != nil {
		t.Fatal("disarmed config built an observer")
	}
	// A nil observer must be fully inert.
	if o.Sink() != nil || o.Sampler() != nil || o.Close() != nil {
		t.Fatal("nil observer methods not inert")
	}
	if (Config{TracePath: "x"}).Armed() != true || (Config{}).Armed() {
		t.Fatal("Armed wrong")
	}
}

func TestMultiComposition(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of no live sinks must be nil (hot-path gate)")
	}
	ring := trace.NewRing(4)
	if got := Multi(nil, ring); got != trace.Sink(ring) {
		t.Fatal("single live sink must come back unwrapped")
	}
	capture := &Capture{}
	m := Multi(ring, capture)
	e := trace.Event{At: 5, Kind: trace.EvSeal, Gen: 0, N: 2}
	m.Emit(e)
	if len(capture.Events) != 1 || capture.Events[0] != e {
		t.Fatalf("fan-out missed capture: %+v", capture.Events)
	}
	if ring.Total() != 1 {
		t.Fatalf("fan-out missed ring: %d", ring.Total())
	}
}

// perfettoDoc decodes the exported JSON for structural assertions.
type perfettoDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		ID   string         `json:"id"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestPerfettoExport(t *testing.T) {
	_, capture, s := capturedRun(t, 5)
	var buf bytes.Buffer
	st, err := WritePerfetto(&buf, capture.Events, s.Series(), PerfettoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var doc perfettoDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != st.Events {
		t.Fatalf("decoded %d events, stats claim %d", len(doc.TraceEvents), st.Events)
	}
	if st.WriteSpans == 0 || st.TxSpans == 0 || st.Counters == 0 || st.Flows == 0 {
		t.Fatalf("expected spans, flows and counters: %+v", st)
	}

	// One named track per generation, plus flush array and manager.
	tracks := map[string]bool{}
	spans := map[string]int{} // write-span id -> open count
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			tracks[e.Args["name"].(string)] = true
		}
		if e.Name == "block write" {
			switch e.Ph {
			case "b":
				spans[e.ID]++
			case "e":
				spans[e.ID]--
			}
		}
	}
	for _, want := range []string{"gen 0", "gen 1", "flush array", "tx lifecycles"} {
		if !tracks[want] {
			t.Fatalf("missing track %q in %v", want, tracks)
		}
	}
	for id, open := range spans {
		if open != 0 {
			t.Fatalf("write span %s unbalanced (%+d)", id, open)
		}
	}
}

func TestPerfettoCapsAreReported(t *testing.T) {
	evs := []trace.Event{
		{At: 1, Kind: trace.EvAppend, Gen: 0, Tx: 1, LSN: 1, N: int(logrec.KindBegin)},
		{At: 2, Kind: trace.EvAppend, Gen: 0, Tx: 2, LSN: 2, N: int(logrec.KindBegin)},
		{At: 3, Kind: trace.EvAppend, Gen: 0, Tx: 3, LSN: 3, N: int(logrec.KindBegin)},
		{At: 4, Kind: trace.EvMove, Gen: 0, Tx: 1, LSN: 1, N: 1},
		{At: 5, Kind: trace.EvMove, Gen: 0, Tx: 2, LSN: 2, N: 1},
		{At: 6, Kind: trace.EvMove, Gen: 1, Tx: 3, LSN: 3, N: 1},
	}
	var buf bytes.Buffer
	st, err := WritePerfetto(&buf, evs, nil, PerfettoOptions{MaxTx: 2, MaxFlows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.TxSpans != 2 || st.DroppedTx != 1 {
		t.Fatalf("tx cap: %+v", st)
	}
	if st.Flows != 2 || st.DroppedFlows != 1 {
		t.Fatalf("flow cap: %+v", st)
	}
	msg := st.String()
	if !strings.Contains(msg, "dropped") {
		t.Fatalf("caps silent in %q", msg)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("capped export is not valid JSON")
	}
}
