// Fixture for the maporder analyzer: order-dependent effects inside map
// iteration. The sorted.go neighbor holds the sort-exempt idioms.
package maporder

import "fmt"

func badAppend(m map[string]int) []string {
	var out []string
	for k := range m { // want `iteration over map m has order-dependent effects \(appends to out\)`
		out = append(out, k)
	}
	return out
}

func badPrint(m map[string]int) {
	for k, v := range m { // want `calls fmt\.Printf`
		fmt.Printf("%s=%d\n", k, v)
	}
}

type sink struct{}

func (sink) Emit(string) {}

func badSink(m map[string]bool, s sink) {
	for k := range m { // want `calls s\.Emit`
		s.Emit(k)
	}
}

func badConcat(m map[string]int) string {
	out := ""
	for k := range m { // want `concatenates onto out`
		out += k
	}
	return out
}

func badSend(m map[int]int, ch chan int) {
	for k := range m { // want `sends on ch`
		ch <- k
	}
}

func badFieldAppend(m map[string]int) {
	var r struct{ rows []string }
	for k := range m { // want `appends to r\.rows`
		r.rows = append(r.rows, k)
	}
	_ = r
}

// goodCount only accumulates an integer: commutative, order-independent.
func goodCount(m map[string]int) int {
	n := 0
	for range m {
		n += 1
	}
	return n
}

// goodLocal appends to a slice scoped to the loop body.
func goodLocal(m map[string]int) {
	for k := range m {
		tmp := []string{}
		tmp = append(tmp, k)
		_ = tmp
	}
}

// goodMapBuild writes another map: insertion order does not matter.
func goodMapBuild(m map[string]int) map[string]int {
	inv := make(map[string]int, len(m))
	for k, v := range m {
		inv[k] = v * 2
	}
	return inv
}

func suppressed(m map[string]int) []string {
	var out []string
	//ellint:allow maporder fixture: consumer treats out as an unordered set
	for k := range m {
		out = append(out, k)
	}
	return out
}
