// Command eltrace inspects and converts trace files recorded by elsim
// (-trace-out) or elchaos: per-kind summaries, transaction and object
// lifecycle reconstruction with the paper's t1…t5 epoch latencies,
// schema validation, and export to Chrome trace-event JSON for
// ui.perfetto.dev.
//
// Usage:
//
//	eltrace -in trace.jsonl                  # summary
//	eltrace -in trace.jsonl -tail 40         # last 40 events
//	eltrace -in trace.jsonl -tx 17           # one transaction's lifecycle
//	eltrace -in trace.jsonl -obj 123456      # one object's version history
//	eltrace -in trace.jsonl -validate        # strict schema check (exit 1 on error)
//	eltrace -in trace.jsonl -counters probes.json -perfetto out.json
//	eltrace -promcheck metrics.txt           # Prometheus exposition conformance check
package main

import (
	"flag"
	"fmt"
	"os"

	"ellog/internal/logrec"
	"ellog/internal/obs"
	"ellog/internal/obs/live"
	"ellog/internal/sim"
)

func main() {
	var (
		in        = flag.String("in", "", "input trace file (JSONL, ellog-trace/1)")
		tail      = flag.Int("tail", 0, "print the last N events")
		txQ       = flag.Uint64("tx", 0, "reconstruct this transaction's lifecycle (t1…t5)")
		objQ      = flag.Int64("obj", -1, "reconstruct this object's version history")
		perfetto  = flag.String("perfetto", "", "write Chrome trace-event JSON to this file")
		counters  = flag.String("counters", "", "probes JSON (elsim -probes-out) rendered as counter tracks in the Perfetto export")
		validate  = flag.Bool("validate", false, "strict schema validation; exit non-zero on any malformed line")
		maxTx     = flag.Int("max-tx", 0, "cap transaction spans in the Perfetto export (default 300)")
		promcheck = flag.String("promcheck", "", "validate this file as Prometheus text exposition (a scraped elreal /metrics body) and exit")
	)
	flag.Parse()
	if *promcheck != "" {
		f, err := os.Open(*promcheck)
		if err != nil {
			fmt.Fprintf(os.Stderr, "eltrace: %v\n", err)
			os.Exit(1)
		}
		err = live.ValidateExposition(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "eltrace: %s: %v\n", *promcheck, err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid Prometheus text exposition\n", *promcheck)
		return
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "eltrace: -in is required")
		flag.Usage()
		os.Exit(2)
	}

	events, err := obs.ReadTraceFile(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eltrace: %s: %v\n", *in, err)
		os.Exit(1)
	}
	if *validate {
		// ReadTraceFile is strict: reaching here means every line parsed
		// and every kind was known.
		fmt.Printf("%s: valid (%d events)\n", *in, len(events))
	}

	ran := *validate
	if *tail > 0 {
		ran = true
		start := len(events) - *tail
		if start < 0 {
			start = 0
		}
		for _, e := range events[start:] {
			fmt.Println(e)
		}
	}
	if *txQ != 0 {
		ran = true
		ix := obs.BuildIndex(events)
		out, ok := ix.FormatTx(logrec.TxID(*txQ))
		if !ok {
			fmt.Fprintf(os.Stderr, "eltrace: tx %d not in trace (%d transactions recorded)\n", *txQ, ix.NumTx())
			os.Exit(1)
		}
		fmt.Print(out)
	}
	if *objQ >= 0 {
		ran = true
		ix := obs.BuildIndex(events)
		out, ok := ix.FormatObj(logrec.OID(*objQ))
		if !ok {
			fmt.Fprintf(os.Stderr, "eltrace: obj %d not in trace\n", *objQ)
			os.Exit(1)
		}
		fmt.Print(out)
	}
	if *perfetto != "" {
		ran = true
		var series []obs.Series
		if *counters != "" {
			var interval sim.Time
			interval, series, err = obs.ReadProbesFile(*counters)
			if err != nil {
				fmt.Fprintf(os.Stderr, "eltrace: %v\n", err)
				os.Exit(1)
			}
			_ = interval
		}
		f, err := os.Create(*perfetto)
		if err != nil {
			fmt.Fprintf(os.Stderr, "eltrace: %v\n", err)
			os.Exit(1)
		}
		st, err := obs.WritePerfetto(f, events, series, obs.PerfettoOptions{MaxTx: *maxTx})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "eltrace: writing %s: %v\n", *perfetto, err)
			os.Exit(1)
		}
		fmt.Printf("%s: %s\n", *perfetto, st)
	}
	if !ran {
		fmt.Print(obs.FormatSummary(events))
	}
}
