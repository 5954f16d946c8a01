package experiments

import (
	"strings"
	"testing"
)

// TestPDESIdenticalAndPinned runs the parallel-engine benchmark at the
// canonical frame and pins its deterministic half: the 4-worker run must
// reproduce the sequential reference, and the simulated counts are exact.
// The wall-clock speedup depends on the host and stays informational, in
// FormatPDES's output only.
func TestPDESIdenticalAndPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scaled-down experiments; skipped with -short (the race job)")
	}
	r, err := PDES(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Identical {
		t.Errorf("pdes/parallel_identical: %d-worker run diverged from the sequential reference", r.ParWorkers)
	}
	if r.Insufficient {
		t.Error("pdes: the benchmark frame's run was insufficient")
	}
	pinInt(t, "pdes/events", r.Stats.Events, 960212)
	pinInt(t, "pdes/windows", r.Stats.Windows, 2667)
	pinInt(t, "pdes/cross_lp_events", r.Stats.Delivered, 139813)
	pinInt(t, "pdes/local_committed", r.Stats.Committed, 111026)
	pinInt(t, "pdes/cross_committed", r.Stats.CrossCommitted, 27735)
	if out := FormatPDES(r); !strings.Contains(out, "byte-identical") {
		t.Fatalf("formatted output missing the identity verdict:\n%s", out)
	}
}
