package main

import (
	"slices"
	"strings"
	"testing"
)

func TestParseMixes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []float64 // nil: must be rejected
	}{
		{"0.05,0.4", []float64{0.05, 0.4}},
		{" 0.05 , 0.2 ", []float64{0.05, 0.2}},
		{"0.4", []float64{0.4}},
		{"0.4x", nil},
		{"0.05abc", nil},
		{"0.05,,0.4", nil},
		{"0.05,", nil},
		{"abc", nil},
	} {
		got, err := parseMixes(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseMixes(%q) = %v, want an error", tc.in, got)
			} else if !strings.Contains(err.Error(), "-mixes") {
				t.Errorf("parseMixes(%q) error %q does not name the flag", tc.in, err)
			}
			continue
		}
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("parseMixes(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}
