package maporder

import "sort"

// goodCollectSort is the canonical deterministic idiom: the appends are
// neutralized by the later sort of the same slice.
func goodCollectSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

type row struct {
	name string
	v    int
}

// goodStructSort collects whole rows and sorts them afterwards — also
// deterministic, by the same rule that passes recovery.Recover's sorted
// winner list.
func goodStructSort(m map[string]int) []row {
	rows := make([]row, 0, len(m))
	for k, v := range m {
		rows = append(rows, row{k, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows
}

// goodNestedSort: the loop sits inside an if, the sort one block out.
func goodNestedSort(m map[string]int, enabled bool) []string {
	var keys []string
	if enabled {
		for k := range m {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// badNeverSorted appends but nothing downstream sorts the slice. This file
// imports sort, so the diagnostic carries a suggested fix (exercised by the
// maporderfix fixture; here only the message is asserted).
func badNeverSorted(m map[string]int) []string {
	var out []string
	for k := range m { // want `appends to out`
		out = append(out, k)
	}
	return out
}

// badSortInClosure: a sort inside a later func literal body does not
// neutralize the append — the closure may never run.
func badSortInClosure(m map[string]int) func() {
	var out []string
	for k := range m { // want `appends to out`
		out = append(out, k)
	}
	return func() { sort.Strings(out) }
}
