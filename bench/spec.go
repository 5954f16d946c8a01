package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is a metric's name and unit. Bounds and directions live only in
// BENCHMARK.json; bench_test.go checks the names and units here against it.
type metricDef struct {
	Name, Unit string
}

// workloadNames is the order workloads run and print in.
var workloadNames = []string{"sim-paper", "sim-search", "real-paced", "real-saturate", "recover-scan"}

// endToEndDefs are the metrics a user of the system sees. Every workload
// reports every one of them (README.md gives each cell's meaning).
var endToEndDefs = []metricDef{
	{"sim_speed_x", "x"},
	{"search_wall_s", "s"},
	{"el_min_blocks", "blocks"},
	{"el_log_writes_per_s", "1/s"},
	{"commit_tput_per_s", "1/s"},
	{"commit_p50_ms", "ms"},
	{"commit_p99_ms", "ms"},
	{"write_amp_x", "x"},
	{"recovery_ms", "ms"},
	{"alloc_b_per_op", "bytes"},
	{"ok_share", "ratio"},
	{"setup_s", "s"},
}

// perLayerDefs are the single-layer metrics of the traced pass. A layer a
// workload does not exercise reads 0 there.
var perLayerDefs = []metricDef{
	{"sim.events_per_s", "1/s"},
	{"sim.events_per_sim_s", "count"},
	{"sim.self_share", "ratio"},
	{"sim.sched_fire_ns", "ns"},
	{"sim.sched_fire_allocs", "count"},
	{"workload.self_share", "ratio"},
	{"workload.self_ns_per_tx", "ns"},
	{"core.self_share", "ratio"},
	{"core.self_ns_per_tx", "ns"},
	{"core.block_writes", "count"},
	{"core.appended_bytes", "bytes"},
	{"core.forwarded_recs", "count"},
	{"core.recirculated_recs", "count"},
	{"core.buffer_stalls", "count"},
	{"core.mem_peak_bytes", "bytes"},
	{"commit_stage.fill_ms_p50", "ms"},
	{"commit_stage.device_ms_p50", "ms"},
	{"commit_stage.post_ms_p50", "ms"},
	{"realdev.write_self_ns", "ns"},
	{"realdev.write_to_done_ms_p50", "ms"},
	{"realdev.write_to_done_ms_p99", "ms"},
	{"realdev.group_wait_ms_p50", "ms"},
	{"realdev.batch_ms_p50", "ms"},
	{"realdev.batch_ms_p99", "ms"},
	{"realdev.blocks_per_batch_mean", "blocks"},
	{"realdev.fsyncs_per_commit", "ratio"},
	{"realdev.pipeline_stalls", "count"},
	{"realdev.physical_bytes", "bytes"},
	{"realdev.logical_bytes", "bytes"},
	{"realdev.slot_bytes", "bytes"},
	{"realdev.direct_io", "bool"},
	{"realdev.read_image_ms", "ms"},
	{"realdev.read_image_mb_per_s", "MB/s"},
	{"realdev.slots_skipped", "count"},
	{"realtime.loop_busy_share", "ratio"},
	{"realtime.timer_late_us_p50", "us"},
	{"realtime.timer_late_us_p99", "us"},
	{"realtime.post_wake_us_p50", "us"},
	{"flushdisk.flushes", "count"},
	{"flushdisk.forced", "count"},
	{"flushdisk.self_share", "ratio"},
	{"flushdisk.max_pending", "count"},
	{"flushdisk.busy_frac", "ratio"},
	{"blockdev.self_share", "ratio"},
	{"blockdev.writes", "count"},
	{"logrec.encode_ns_per_rec", "ns"},
	{"logrec.decode_ns_per_rec", "ns"},
	{"logrec.salvage_mb_per_s", "MB/s"},
	{"logrec.encode_allocs", "count"},
	{"container.table_ns_per_op", "ns"},
	{"container.treap_ns_per_op", "ns"},
	{"statedb.apply_ns_per_op", "ns"},
	{"statedb.clone_ms", "ms"},
	{"recovery.recover_ms", "ms"},
	{"recovery.recs_per_s", "1/s"},
	{"recovery.blocks_read", "count"},
	{"recovery.torn_blocks", "count"},
	{"recovery.salvaged_recs", "count"},
	{"runner.simulations_run", "count"},
	{"runner.cache_hits", "count"},
	{"runner.cache_hit_ratio", "ratio"},
	{"runner.worker_busy_share", "ratio"},
	{"driver.late_us_p99", "us"},
	{"driver.slo_miss_share", "ratio"},
	{"driver.offered_per_s", "1/s"},
	{"bench.trace_overhead_share", "ratio"},
	{"host.calib_ns", "ns"},
	{"host.peak_rss_mb", "MB"},
	{"host.nproc", "count"},
}

// values maps metric names to measurements.
type values map[string]float64

// result is what one pass of one workload produced.
type result struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Notes     []string `json:"notes,omitempty"` // failed checks, and "unresolved:" markers
	E2E       values   `json:"-"`
	Layers    values   `json:"-"`
	// Detail carries what stands beside the headline numbers: quartiles,
	// sample and round counts, digests.
	Detail map[string]any `json:"detail,omitempty"`
	Params any            `json:"params"`

	tracer *tracer // the traced pass's spans, for -trace-out
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// okShare is 1 − failed ÷ attempted.
func (r *result) okShare() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return 1 - float64(r.Failed)/float64(r.Attempted)
}

// measured is a value with its unit, the form every output uses.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits renders vals in the order and units of defs. A metric the
// workload did not produce reads 0.
func withUnits(defs []metricDef, vals values) map[string]measured {
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		out[d.Name] = measured{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
