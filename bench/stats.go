package main

import "sort"

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile reads the q-quantile off an ascending slice, interpolating
// linearly between the two closest ranks. An empty slice reads 0.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := q * float64(len(asc)-1)
	lo := int(pos)
	if lo >= len(asc)-1 {
		return asc[len(asc)-1]
	}
	frac := pos - float64(lo)
	return asc[lo] + frac*(asc[lo+1]-asc[lo])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// lowerQuartile is the statistic repeated recoveries of one image are
// reported as. The work is the same every repetition and the host only ever
// adds to it (a page fault on memory the scavenger returned, a neighbour on
// the cache), so the upper half of the repetitions is the noisy half: across
// ten runs of real-paced the median moved 7.2 %, the lower quartile 3.3 %.
func lowerQuartile(xs []float64) float64 { return quantile(sorted(xs), 0.25) }

// windowedP99 cuts samples (each with the time it was taken) into windows
// of equal span over [0, horizon), takes the 99th percentile inside each window
// and returns the median of those — one slow fsync lands in one window and
// cannot move the result. Windows with no sample are skipped.
func windowedP99(at, val []float64, horizon float64, windows int) float64 {
	buckets := make([][]float64, windows)
	for i, t := range at {
		w := int(t / horizon * float64(windows))
		if w < 0 {
			w = 0
		}
		if w >= windows {
			w = windows - 1
		}
		buckets[w] = append(buckets[w], val[i])
	}
	var p99s []float64
	for _, b := range buckets {
		if len(b) > 0 {
			sort.Float64s(b)
			p99s = append(p99s, quantile(b, 0.99))
		}
	}
	return median(p99s)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
