// Package runner fans independent simulation probes across a bounded pool
// of goroutines. Each probe is one harness.Run — or one harness.Probe, the
// same simulation ended at its verdict — a single-threaded discrete-event
// simulation whose outcome depends only on its Config (including the
// seed) — so whole runs parallelize freely while every individual
// simulation stays deterministic. The pool additionally
// memoizes results by canonical config so overlapping searches (the
// experiments share many probe points) pay for each simulation once.
//
// A nil *Pool is valid everywhere and means "strictly sequential,
// uncached": call sites thread an optional pool without branching, and
// sequential output is byte-identical to parallel output by construction —
// the pool never reorders, samples, or perturbs results, it only
// schedules.
//
// The pool is the only parallelism in a simulation: every probe it
// schedules, a sharded PDES run included, is a single-threaded simulation.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ellog/internal/harness"
)

// Pool is a bounded worker pool with a probe cache. The semaphore gates
// only the simulations themselves (Run and Do); orchestration helpers
// (ForEach, RunAll) run unthrottled so nested fan-out — an experiment
// point that itself runs a search that itself probes — cannot deadlock on
// pool slots.
type Pool struct {
	sem  chan struct{}
	mu   sync.Mutex
	memo map[string]*probe
	runs atomic.Uint64 // simulations actually executed
	hits atomic.Uint64 // probes answered from the cache (or an in-flight run)
}

// probe is one memoized simulation: started exactly once, joined by any
// number of waiters.
type probe struct {
	done chan struct{}
	res  harness.Result
	err  error
}

// New builds a pool running at most workers simulations at once.
// workers <= 0 selects GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		sem:  make(chan struct{}, workers),
		memo: make(map[string]*probe),
	}
}

// Workers reports the concurrency bound; a nil pool runs one probe at a
// time.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return cap(p.sem)
}

// Key canonicalizes a config for memoization. harness.Config is plain
// data — value fields and slices, no maps or pointers — so the %#v
// rendering is a faithful, deterministic identity.
func Key(cfg harness.Config) string { return fmt.Sprintf("%#v", cfg) }

// Run executes one probe to its horizon, deduplicating against the cache:
// if an identical config already ran (or is running), its result is shared
// instead of re-simulated. On a nil pool it degenerates to harness.Run.
func (p *Pool) Run(cfg harness.Config) (harness.Result, error) {
	if p == nil {
		return harness.Run(cfg)
	}
	pr, cached := p.claim(Key(cfg))
	if !cached {
		p.execute(pr, harness.Run, cfg)
	}
	<-pr.done
	return pr.res, pr.err
}

// verdictKey files an early-stopped probe apart from complete runs of the
// same config, so Run can never be handed a truncated Result.
func verdictKey(key string) string { return "verdict:" + key }

// Probe asks only whether cfg is sufficient (harness.Probe): the simulation
// ends at its verdict, so the Result of an insufficient config is partial —
// see harness.Probe for which fields. A complete run of the same config
// answers a probe from the cache; an early-stopped probe never answers Run.
// A probe that turns out sufficient ran to the horizon and is filed as the
// complete run it is.
func (p *Pool) Probe(cfg harness.Config) (harness.Result, error) {
	if p == nil {
		return harness.Probe(cfg)
	}
	key := Key(cfg)
	pr, cached := p.claim(key, verdictKey(key))
	if !cached {
		p.execute(pr, harness.Probe, cfg)
		if pr.err == nil && !pr.res.Insufficient() {
			p.mu.Lock()
			if _, ok := p.memo[key]; !ok {
				p.memo[key] = pr
			}
			p.mu.Unlock()
		}
	}
	<-pr.done
	return pr.res, pr.err
}

// claim returns the memoized probe filed under the first of keys that has
// one (cached == true: wait on it), or files a fresh probe under the last
// key for the caller to execute.
func (p *Pool) claim(keys ...string) (pr *probe, cached bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, k := range keys {
		if pr, ok := p.memo[k]; ok {
			p.hits.Add(1)
			return pr, true
		}
	}
	pr = &probe{done: make(chan struct{})}
	p.memo[keys[len(keys)-1]] = pr
	return pr, false
}

// execute runs a claimed probe under the pool's concurrency bound and
// releases its waiters.
func (p *Pool) execute(pr *probe, run func(harness.Config) (harness.Result, error), cfg harness.Config) {
	p.sem <- struct{}{}
	pr.res, pr.err = run(cfg)
	<-p.sem
	p.runs.Add(1)
	close(pr.done)
}

// RunAll probes every config and returns results in input order. All
// probes run to completion even when some fail; the error (if any) is the
// one from the lowest-index failing config, so parallel and sequential
// callers observe the same error.
func (p *Pool) RunAll(cfgs []harness.Config) ([]harness.Result, error) {
	out := make([]harness.Result, len(cfgs))
	err := p.ForEach(len(cfgs), func(i int) error {
		r, e := p.Run(cfgs[i])
		out[i] = r
		return e
	})
	return out, err
}

// ForEach invokes fn(0) … fn(n-1), concurrently on a real pool and
// in index order on a nil one, and waits for all of them. Every task runs
// regardless of other tasks' failures — results land in caller-indexed
// slots, so partial completion would leave silent zero values — and the
// lowest-index error is returned, making the reported failure independent
// of goroutine scheduling.
func (p *Pool) ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if p == nil || n == 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Do runs fn under the pool's concurrency bound without caching — for
// live runs (recovery drills, trace captures) that mutate state beyond a
// Result and therefore must execute every time. On a nil pool fn runs
// directly.
func (p *Pool) Do(fn func() error) error {
	if p == nil {
		return fn()
	}
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	return fn()
}

// Stats reports how many simulations actually executed and how many
// probes were answered by the cache.
func (p *Pool) Stats() (runs, hits uint64) {
	if p == nil {
		return 0, 0
	}
	return p.runs.Load(), p.hits.Load()
}
