package main

import "time"

var epoch = time.Now() //ellint:allow wallclock origin of the benchmark's one monotonic clock

// nowNS is the only wall-clock read in the benchmark: nanoseconds since the
// process started, monotonic. Everything that times host work — rounds,
// spans, set-up, isolated loops — calls it, so the determinism lint has one
// audited site and a reviewer has one place to check what "wall" means.
func nowNS() int64 {
	return int64(time.Since(epoch)) //ellint:allow wallclock the benchmark measures host time by design
}

// seconds converts a nowNS interval to seconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// millis converts a nowNS interval to milliseconds.
func millis(ns int64) float64 { return float64(ns) / 1e6 }

var calibSink uint64

// calibNS times a fixed arithmetic loop (xorshift over 1<<22 steps, minimum
// of 5 repetitions) and returns nanoseconds per step. It touches no memory
// and calls nothing, so it tracks only the host's clock speed: a ns-valued
// layer metric divided by it is comparable across machines.
func calibNS() float64 {
	const steps = 1 << 22
	return minOf(5, func() float64 {
		x := uint64(88172645463325252)
		t0 := nowNS()
		for i := 0; i < steps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		d := nowNS() - t0
		calibSink += x
		return float64(d) / steps
	})
}

// minOf runs fn reps times and returns the smallest result — the
// repetition least disturbed by the host.
func minOf(reps int, fn func() float64) float64 {
	best := fn()
	for i := 1; i < reps; i++ {
		if v := fn(); v < best {
			best = v
		}
	}
	return best
}
