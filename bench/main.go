// Command bench is the repository's benchmark: five named workloads, twelve
// end-to-end metrics every workload reports, and a per-layer ledger measured
// from outside the program by decorating the seams it already has. README.md
// defines every metric and pins every parameter; BENCHMARK.json fixes the
// bounds.
//
//	go run ./bench -seed 1 -out set.json     every workload, untraced then traced, plus the isolated loops
//	go run ./bench --workload real-paced --seed 7 --seconds 10 --trace 0
//	go run ./bench compare A.json B.json     gate B against A by BENCHMARK.json's bounds
//
// With --workload the last line of standard output is one JSON object:
// correct, attempted, failed and metrics — the end-to-end ones with
// --trace 0, the per-layer ones with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// resultSchema versions the -out file.
const resultSchema = "ellog-benchmark/1"

// setFile is what -out writes and compare reads.
type setFile struct {
	Schema    string                 `json:"schema"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Workloads map[string]setWorkload `json:"workloads"`
	// Isolated holds the isolated layer loops and host figures; they are
	// also folded into every workload's per_layer.
	Isolated map[string]measured `json:"isolated"`
	// CalibMultiples gives each ns-valued isolated loop as a multiple of
	// host.calib_ns from the same process.
	CalibMultiples map[string]float64 `json:"calib_multiples"`
}

// setWorkload is one workload's two passes.
type setWorkload struct {
	Untraced result              `json:"untraced"`
	Traced   result              `json:"traced"`
	EndToEnd map[string]measured `json:"end_to_end"`
	PerLayer map[string]measured `json:"per_layer"`
}

func main() { os.Exit(run()) }

func run() int {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		return compareMain(os.Args[2:])
	}
	var (
		workloadName = flag.String("workload", "", "run only this workload and end with the one-line JSON result (default: the full set)")
		seed         = flag.Uint64("seed", 1, "seed every generated input derives from")
		secs         = flag.Float64("seconds", 10, "length of each timed phase")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics untraced, 1 the per-layer metrics traced")
		out          = flag.String("out", "", "full set: write the result file here")
		traceOut     = flag.String("trace-out", "", "write the traced pass's spans here as JSON lines")
		scratch      = flag.String("scratch", ".bench_tmp", "directory real runs create (and remove) their log directories in")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *secs <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	e := env{seed: *seed, seconds: *secs, scratch: *scratch, spans: *traceOut != ""}
	defer os.Remove(e.scratch) // only if empty: every run removes its own directory

	if *workloadName != "" {
		return runOne(e, *workloadName, *trace == 1, *traceOut)
	}
	return runSet(e, *out, *traceOut)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runWorkload dispatches one pass of one workload.
func runWorkload(e env, name string, traced bool) (result, error) {
	switch name {
	case "sim-paper":
		return runSimPaper(e, traced)
	case "sim-search":
		return runSimSearch(e, traced)
	case "real-paced":
		p, err := pacedParams(e.seconds)
		if err != nil {
			return result{}, err
		}
		return runRealLoad(e, name, p, traced)
	case "real-saturate":
		return runRealLoad(e, name, saturateParams(e), traced)
	case "recover-scan":
		return runRecoverScan(e, scanParams(e))
	}
	return result{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// runOne is the driver contract: one workload, one pass, one JSON line.
func runOne(e env, name string, traced bool, traceOut string) int {
	spans, err := createTraceFile(traceOut)
	if err != nil {
		fatal(err)
	}
	res, err := runWorkload(e, name, traced)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	spans.take(name, &res)
	if err := spans.close(); err != nil {
		fatal(err)
	}
	defs, vals := endToEndDefs, res.E2E
	if traced {
		defs, vals = perLayerDefs, res.Layers
		addHost(vals, isolated())
	}
	printMetrics(os.Stdout, name, defs, vals)
	for _, n := range res.Notes {
		fmt.Println("note:", n)
	}
	line, err := json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]measured `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, withUnits(defs, vals)})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runSet runs every workload untraced, then traced, then the isolated
// loops; prints every metric by name with its unit; writes the result file.
func runSet(e env, out, traceOut string) int {
	set := setFile{Schema: resultSchema, Seed: e.seed, Seconds: e.seconds, Workloads: map[string]setWorkload{}}
	iso := isolated()
	set.Isolated = map[string]measured{}
	set.CalibMultiples = map[string]float64{}
	spans, err := createTraceFile(traceOut)
	if err != nil {
		fatal(err)
	}
	ok := true
	for _, name := range workloadNames {
		fmt.Printf("== %s\n", name)
		un, err := runWorkload(e, name, false)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		tr, err := runWorkload(e, name, true)
		if err != nil {
			fatal(fmt.Errorf("%s (traced): %w", name, err))
		}
		spans.take(name, &tr)
		checkDigests(&un, &tr)
		addHost(tr.Layers, iso)
		printMetrics(os.Stdout, name, endToEndDefs, un.E2E)
		printMetrics(os.Stdout, name, perLayerDefs, tr.Layers)
		for _, r := range []*result{&un, &tr} {
			for _, n := range r.Notes {
				fmt.Println("note:", n)
			}
			ok = ok && r.Correct
		}
		set.Workloads[name] = setWorkload{
			Untraced: un, Traced: tr,
			EndToEnd: withUnits(endToEndDefs, un.E2E),
			PerLayer: withUnits(perLayerDefs, tr.Layers),
		}
	}
	for _, d := range perLayerDefs {
		if v, isIso := iso[d.Name]; isIso {
			set.Isolated[d.Name] = measured{Value: v, Unit: d.Unit}
		}
	}
	fmt.Println("== isolated loops, as multiples of host.calib_ns")
	for _, name := range isolatedNS {
		set.CalibMultiples[name] = iso[name] / iso["host.calib_ns"]
		fmt.Printf("  %-34s %12.2f x\n", name, set.CalibMultiples[name])
	}
	if err := spans.close(); err != nil {
		fatal(err)
	}
	if out != "" {
		raw, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if !ok {
		fmt.Println("FAIL: a correctness check failed (see the notes above)")
		return 1
	}
	fmt.Println("ok: every correctness check passed")
	return 0
}

// addHost folds the isolated loops and the host figures, which belong to no
// workload, into a traced pass's per-layer metrics.
func addHost(layers, iso values) {
	for k, v := range iso {
		layers[k] = v
	}
	layers["host.peak_rss_mb"] = peakRSSMB()
}

// checkDigests fails the traced pass if a seed both passes simulated came
// out differently: tracing must not change the model.
func checkDigests(un, tr *result) {
	a, _ := un.Detail["digests"].(map[string]string)
	b, _ := tr.Detail["digests"].(map[string]string)
	seeds := make([]string, 0, len(a))
	for s := range a {
		seeds = append(seeds, s)
	}
	sort.Strings(seeds)
	for _, s := range seeds {
		if d, both := b[s]; both && d != a[s] {
			tr.fail("seed %s: traced pass digest %s, untraced pass %s", s, d, a[s])
		}
	}
}

func printMetrics(w *os.File, workloadName string, defs []metricDef, vals values) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-14s %-34s %16.6g %s\n", workloadName, d.Name, vals[d.Name], d.Unit)
	}
}
