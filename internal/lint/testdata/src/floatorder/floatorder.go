// Fixture for float reduction in map-iteration order, checked by the
// maporder analyzer: float arithmetic is not associative, so a different
// iteration order is a different sum. Integer accumulation, slice-order and
// sorted-key reduction are fine.
package floatorder

import "sort"

func badMapSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `accumulates float into sum`
		sum += v
	}
	return sum
}

func badMapExpandedForm(m map[int]float64) float64 {
	total := 0.0
	for k := range m { // want `accumulates float into total`
		total = total + m[k]
	}
	return total
}

func badMapProduct(m map[string]float64) float64 {
	p := 1.0
	for _, v := range m { // want `accumulates float into p`
		p *= v
	}
	return p
}

type stats struct{ mean float64 }

func badFieldAccum(m map[string]float64) stats {
	var s stats
	for _, v := range m { // want `accumulates float into s\.mean`
		s.mean += v
	}
	return s
}

// goodIntCount: integer addition commutes exactly.
func goodIntCount(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// goodSliceSum: slice iteration order is deterministic.
func goodSliceSum(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}

// goodLoopLocal: the accumulator lives inside the loop body.
func goodLoopLocal(m map[string]float64) {
	for _, v := range m {
		scaled := 0.0
		scaled += v
		_ = scaled
	}
}

// goodSortedKeys reduces floats over sorted keys: the slice fixes the
// order, so the sum is the same on every run.
func goodSortedKeys(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sum := 0.0
	for _, k := range keys {
		sum += m[k]
	}
	return sum
}

func suppressed(m map[string]float64) float64 {
	var sum float64
	//ellint:allow maporder fixture: downstream compares with tolerance
	for _, v := range m {
		sum += v
	}
	return sum
}
