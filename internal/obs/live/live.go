// Package live is the wall-clock half of the observability layer: a
// lock-free metrics registry the real backend's goroutines update while
// HTTP handlers and the -watch dashboard read it concurrently. Metric
// names follow the canonical ellog_* schema in package obs, so a live
// snapshot from elreal and a probe dump from elsim describe the same
// series — the sim↔real bridge the sim-vs-real comparison joins on.
//
// Simulated runs never touch this package: it exists for real mode only,
// which is why the ellint wall-clock exemption covers it while the rest
// of internal/obs stays under the determinism contract.
package live

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"ellog/internal/metrics"
	"ellog/internal/obs"
)

// Value is a float64 instrument updatable lock-free from any goroutine:
// the loop goroutine sets polled levels, the device's completion path
// bumps counters, HTTP handlers read — no locks anywhere.
type Value struct {
	bits atomic.Uint64
}

// Set stores v.
func (v *Value) Set(f float64) { v.bits.Store(math.Float64bits(f)) }

// Load returns the current value.
func (v *Value) Load() float64 { return math.Float64frombits(v.bits.Load()) }

// Add atomically adds d.
func (v *Value) Add(d float64) {
	for {
		old := v.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if v.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds 1.
func (v *Value) Inc() { v.Add(1) }

// Histogram is a fixed-bucket histogram with atomic counts: Observe is
// wait-free per bucket, Snapshot is a consistent-enough read for
// monitoring (bucket counts may trail count/sum by in-flight samples).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	count  atomic.Uint64
	sum    Value
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// count before bucket, and Snapshot loads buckets before count, so a
	// snapshot never shows more in its buckets than in its count.
	h.count.Add(1)
	h.counts[lo].Add(1)
	h.sum.Add(v)
}

// Snapshot exports the current cumulative state as a fixed-bucket
// snapshot, the same shape metrics.Histogram.Snapshot produces.
func (h *Histogram) Snapshot() metrics.BucketSnapshot {
	s := metrics.BucketSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// item is one registered instrument; exactly one of val/hist is set.
type item struct {
	name   string // full series name, labels inline
	family string
	labels string
	kind   string // obs.KindCounter, obs.KindGauge, or "histogram"
	help   string
	val    *Value
	hist   *Histogram
}

// Registry holds the live instruments. The mutex guards registration
// only; reads and updates of registered instruments are atomic.
type Registry struct {
	mu     sync.Mutex
	items  []*item
	byName map[string]*item
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*item)}
}

func (r *Registry) register(name, kind, help string) *item {
	family, labels := obs.SplitName(name)
	if help == "" {
		help = obs.HelpFor(family)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[name]; ok {
		panic(fmt.Sprintf("live: duplicate metric %q (%s)", name, prev.kind))
	}
	it := &item{name: name, family: family, labels: labels, kind: kind, help: help}
	r.items = append(r.items, it)
	r.byName[name] = it
	return it
}

// Counter registers a cumulative metric and returns its instrument. An
// empty help string falls back to the canonical schema help. Duplicate
// names panic. Counters expose Set as well as Add because real-mode
// sources include polled cumulative probes (the manager's commit count),
// not just event-driven increments.
func (r *Registry) Counter(name, help string) *Value {
	it := r.register(name, obs.KindCounter, help)
	it.val = &Value{}
	return it.val
}

// Gauge registers a level metric and returns its instrument.
func (r *Registry) Gauge(name, help string) *Value {
	it := r.register(name, obs.KindGauge, help)
	it.val = &Value{}
	return it.val
}

// Histogram registers a fixed-bucket histogram over the given ascending
// bounds and returns its instrument. The bounds slice is referenced.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	it := r.register(name, "histogram", help)
	it.hist = &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	return it.hist
}

// Sample is one metric's state in a snapshot.
type Sample struct {
	Name   string
	Family string
	Labels string
	Kind   string
	Help   string
	Value  float64                 // scalars
	Hist   *metrics.BucketSnapshot // histograms
}

// Snapshot is a point-in-time read of every registered metric, sorted by
// (family, labels) so renderings are deterministic regardless of
// registration order.
type Snapshot struct {
	Samples []Sample
}

// Snapshot reads every instrument. Safe to call from any goroutine.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	items := make([]*item, len(r.items))
	copy(items, r.items)
	r.mu.Unlock()
	samples := make([]Sample, 0, len(items))
	for _, it := range items {
		s := Sample{Name: it.name, Family: it.family, Labels: it.labels, Kind: it.kind, Help: it.help}
		if it.hist != nil {
			h := it.hist.Snapshot()
			s.Hist = &h
		} else {
			s.Value = it.val.Load()
		}
		samples = append(samples, s)
	}
	sort.Slice(samples, func(i, j int) bool {
		if samples[i].Family != samples[j].Family {
			return samples[i].Family < samples[j].Family
		}
		return samples[i].Labels < samples[j].Labels
	})
	return Snapshot{Samples: samples}
}

// Get returns the sample with the given full name.
func (s Snapshot) Get(name string) (Sample, bool) {
	for _, sm := range s.Samples {
		if sm.Name == name {
			return sm, true
		}
	}
	return Sample{}, false
}

// Value returns a scalar metric's value, 0 when absent.
func (s Snapshot) Value(name string) float64 {
	sm, _ := s.Get(name)
	return sm.Value
}
