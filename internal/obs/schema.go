package obs

import (
	"strconv"
	"strings"

	"ellog/internal/core"
	"ellog/internal/flushdisk"
)

// This file is the canonical ellog_* metric schema shared by both
// execution modes. A metric's full name carries its label set inline
// (`ellog_gen_used_blocks{gen="0"}`), which works unchanged as a flat
// probe-series name in simulated runs and as a Prometheus sample name in
// real runs — the sim↔real bridge is purely a naming convention, so
// `elbench -exp simvreal` can join the two sides by string equality.

// Metric kinds, used for Prometheus TYPE lines and to decide how the live
// registry polls a probe (counters are cumulative, gauges are levels).
const (
	KindCounter = "counter"
	KindGauge   = "gauge"
)

// Canonical names of the real-mode-only metrics (the simulated device has
// no fsync; these exist only in the live registry).
const (
	MetricFsyncLatencyMS  = "ellog_fsync_latency_ms"
	MetricBatchBlocks     = "ellog_group_commit_batch_blocks"
	MetricBatchBytes      = "ellog_group_commit_batch_bytes"
	MetricBatches         = "ellog_batches_total"
	MetricFsyncs          = "ellog_fsyncs_total"
	MetricPwrites         = "ellog_pwrites_total"
	MetricPipelineStalls  = "ellog_pipeline_stalls_total"
	MetricInflightBatches = "ellog_inflight_batches"
	MetricTornFrames      = "ellog_torn_frames_total"
	MetricSalvagedRecords = "ellog_salvaged_records_total"
	MetricUptimeSeconds   = "ellog_uptime_seconds"
	MetricAppendedBytes   = "ellog_appended_bytes_total"
	MetricCommits         = "ellog_commits_total"
	MetricLogWrites       = "ellog_log_writes_total"
	MetricLogBlocks       = "ellog_log_blocks"
	MetricWriteRetries    = "ellog_write_retries_total"
	MetricKilled          = "ellog_killed_total"
	MetricLOTEntries      = "ellog_lot_entries"
	MetricLTTEntries      = "ellog_ltt_entries"
	MetricMemBytes        = "ellog_mem_bytes"
	MetricFlushBacklog    = "ellog_flush_backlog"
	MetricFlushes         = "ellog_flushes_total"
	MetricForcedFlushes   = "ellog_forced_flushes_total"
	MetricGenUsedBlocks   = "ellog_gen_used_blocks"
	MetricGenSizeBlocks   = "ellog_gen_size_blocks"
	MetricGenLiveRecords  = "ellog_gen_live_records"
)

// Bucket bounds for the live registry's fixed-bucket histograms. Shared
// here so elreal's JSON report, the /metrics endpoint and tests agree.
var (
	// FsyncLatencyBucketsMS spans tmpfs (tens of µs) through spinning
	// rust with a congested queue (hundreds of ms).
	FsyncLatencyBucketsMS = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000}
	// BatchBlocksBuckets covers group-commit batch sizes in slots.
	BatchBlocksBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}
	// BatchBytesBuckets covers batch payload sizes.
	BatchBytesBuckets = []float64{4096, 16384, 65536, 262144, 1048576, 4194304}
)

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format: backslash, double-quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// MetricName renders base plus key/value label pairs as a full series
// name: MetricName("x", "gen", "0") == `x{gen="0"}`. Pairs must come in
// key order; values are escaped. With no pairs the base is returned bare.
func MetricName(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// WithLabel adds one key="value" pair to a full series name, keeping the
// name parseable: `x` → `x{k="v"}`, `x{a="1"}` → `x{a="1",k="v"}`. The
// caller is responsible for keeping labels in a deterministic order
// (PDES adds lp= last).
func WithLabel(name, key, val string) string {
	esc := key + `="` + escapeLabelValue(val) + `"`
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + "," + esc + "}"
	}
	return name + "{" + esc + "}"
}

// SplitName splits a full series name into its metric family (the bare
// base name) and the label block (`gen="0"` — empty when unlabelled).
func SplitName(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	if !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// NamedProbe is one entry of the canonical schema: a full series name,
// the metric kind, help text for the exposition format, and the cheap
// read-only probe producing the current value.
type NamedProbe struct {
	Name string
	Kind string
	Help string
	Fn   Probe
}

// ProbeTargets names the components the standard schema reads. Dev is an
// interface so both the simulated block device and the real file device
// plug in; LM and Flush are the identical concrete types in both modes.
type ProbeTargets struct {
	LM    *core.Manager
	Dev   interface{ Writes() uint64 }
	Flush *flushdisk.Array
}

// HelpFor returns the canonical help string for a metric family, used by
// the live registry so sim and real expositions describe series
// identically. Unknown families get an empty string.
func HelpFor(family string) string {
	switch family {
	case MetricGenUsedBlocks:
		return "Blocks currently occupied in the generation."
	case MetricGenSizeBlocks:
		return "Configured capacity of the generation in blocks."
	case MetricGenLiveRecords:
		return "Non-garbage records tracked in the generation."
	case MetricLOTEntries:
		return "Log object table entries."
	case MetricLTTEntries:
		return "Log transaction table entries."
	case MetricMemBytes:
		return "Main memory for the LOT and LTT (paper's model)."
	case MetricLogBlocks:
		return "Configured disk space for the whole log in blocks (min-space gauge)."
	case MetricLogWrites:
		return "Completed block writes to the log device."
	case MetricCommits:
		return "Committed transactions."
	case MetricAppendedBytes:
		return "Logical bytes appended to the log."
	case MetricWriteRetries:
		return "Reissued block writes after transient errors."
	case MetricKilled:
		return "Transactions killed for log space."
	case MetricFlushBacklog:
		return "Objects waiting in the flush array."
	case MetricFlushes:
		return "Completed object flushes."
	case MetricForcedFlushes:
		return "Flushes forced by log-space pressure."
	case MetricFsyncLatencyMS:
		return "Fsync latency of group-commit batches in milliseconds."
	case MetricBatchBlocks:
		return "Group-commit batch size in slots."
	case MetricBatchBytes:
		return "Group-commit batch size in bytes."
	case MetricBatches:
		return "Group-commit batches written."
	case MetricFsyncs:
		return "Fsync calls issued."
	case MetricPwrites:
		return "File writes issued, one per run of adjacent slots in a batch."
	case MetricPipelineStalls:
		return "Dispatches that waited on the in-flight fsync."
	case MetricInflightBatches:
		return "Batches dispatched but not yet durable."
	case MetricTornFrames:
		return "Torn frames detected on recovery or append."
	case MetricSalvagedRecords:
		return "Records salvaged from torn blocks."
	case MetricUptimeSeconds:
		return "Wall-clock seconds since the loop started."
	}
	return ""
}

// StandardProbes returns the canonical probe table over the given
// targets, in deterministic order: per-generation series first
// (generation-major), then tables and totals, then the devices. Every
// name here is exactly what a real-mode /metrics exposition serves.
func StandardProbes(t ProbeTargets) []NamedProbe {
	lm, dev, flush := t.LM, t.Dev, t.Flush
	var probes []NamedProbe
	for i := 0; i < lm.NumGenerations(); i++ {
		gi := i
		gen := strconv.Itoa(gi)
		probes = append(probes,
			NamedProbe{MetricName(MetricGenUsedBlocks, "gen", gen), KindGauge, HelpFor(MetricGenUsedBlocks),
				func() float64 { return float64(lm.GenUsed(gi)) }},
			NamedProbe{MetricName(MetricGenSizeBlocks, "gen", gen), KindGauge, HelpFor(MetricGenSizeBlocks),
				func() float64 { return float64(lm.GenSize(gi)) }},
			NamedProbe{MetricName(MetricGenLiveRecords, "gen", gen), KindGauge, HelpFor(MetricGenLiveRecords),
				func() float64 { return float64(lm.GenLiveCells(gi)) }},
		)
	}
	probes = append(probes,
		NamedProbe{MetricLOTEntries, KindGauge, HelpFor(MetricLOTEntries),
			func() float64 { return float64(lm.LOTLen()) }},
		NamedProbe{MetricLTTEntries, KindGauge, HelpFor(MetricLTTEntries),
			func() float64 { return float64(lm.LTTLen()) }},
		NamedProbe{MetricMemBytes, KindGauge, HelpFor(MetricMemBytes), lm.MemBytes},
		NamedProbe{MetricLogBlocks, KindGauge, HelpFor(MetricLogBlocks),
			func() float64 { return float64(lm.TotalBlocks()) }},
		NamedProbe{MetricCommits, KindCounter, HelpFor(MetricCommits),
			func() float64 { return float64(lm.CommitCount()) }},
		NamedProbe{MetricAppendedBytes, KindCounter, HelpFor(MetricAppendedBytes),
			func() float64 { return float64(lm.AppendedByteCount()) }},
		NamedProbe{MetricWriteRetries, KindCounter, HelpFor(MetricWriteRetries),
			func() float64 { return float64(lm.WriteRetryCount()) }},
		NamedProbe{MetricKilled, KindCounter, HelpFor(MetricKilled),
			func() float64 { return float64(lm.KilledCount()) }},
	)
	if dev != nil {
		probes = append(probes, NamedProbe{MetricLogWrites, KindCounter, HelpFor(MetricLogWrites),
			func() float64 { return float64(dev.Writes()) }})
	}
	if flush != nil {
		probes = append(probes,
			NamedProbe{MetricFlushBacklog, KindGauge, HelpFor(MetricFlushBacklog),
				func() float64 { return float64(flush.PendingCount()) }},
			NamedProbe{MetricFlushes, KindCounter, HelpFor(MetricFlushes),
				func() float64 { return float64(flush.Flushes()) }},
			NamedProbe{MetricForcedFlushes, KindCounter, HelpFor(MetricForcedFlushes),
				func() float64 { return float64(flush.Forced()) }},
		)
	}
	return probes
}

// RegisterProbes registers every schema probe on a sampler.
func RegisterProbes(s *Sampler, probes []NamedProbe) {
	for _, p := range probes {
		s.Register(p.Name, p.Fn)
	}
}
