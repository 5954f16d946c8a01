package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ellog/internal/config"
	"ellog/internal/obs"
)

// buildElsim builds the command into dir and returns the binary's path.
func buildElsim(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "elsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestShardedRunsTakeEveryOption: a sharded run is the same run path as a
// single-log one, so the seed fan-out and the flight recorder work on it
// too — one recorder per shard.
func TestShardedRunsTakeEveryOption(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs sharded simulations; skipped with -short")
	}
	bin := buildElsim(t, t.TempDir())
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-shards", "2", "-seeds", "2", "-runtime", "5"},
			[]string{"seed 2 ", "verdict: disk space sufficient for every seed"}},
		{[]string{"-shards", "2", "-trace", "20", "-runtime", "2"},
			[]string{"--- shard 1: last 20 trace events ---", "recovery verified"}},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		if err != nil {
			t.Fatalf("elsim %v: %v\n%s", tc.args, err, out)
		}
		for _, w := range tc.want {
			if !strings.Contains(string(out), w) {
				t.Fatalf("elsim %v: output lacks %q:\n%s", tc.args, w, out)
			}
		}
	}
}

// TestShardedRunHonoursObservabilitySection: a sharded run takes its
// trace and probe outputs from the configuration file's observability
// section, just as a single-log run does — one trace file and one probes
// file per shard next to the configured paths, each series kept to the
// configured point budget.
func TestShardedRunHonoursObservabilitySection(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs a sharded simulation; skipped with -short")
	}
	dir := t.TempDir()
	bin := buildElsim(t, dir)
	const maxPoints = 8
	tracePath := filepath.Join(dir, "t.jsonl")
	probesPath := filepath.Join(dir, "p.json")
	cfg := config.Default()
	cfg.Shards = 2
	cfg.RuntimeS = 2
	cfg.Observability = &config.ObsJSON{TracePath: tracePath, ProbesPath: probesPath, MaxPoints: maxPoints}
	cfgPath := filepath.Join(dir, "cfg.json")
	if err := cfg.Save(cfgPath); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(bin, "-config", cfgPath).CombinedOutput(); err != nil {
		t.Fatalf("elsim: %v\n%s", err, out)
	}
	for _, lp := range []string{".lp0", ".lp1"} {
		events, err := obs.ReadTraceFile(tracePath + lp)
		if err != nil {
			t.Fatalf("trace %s: %v", lp, err)
		}
		if len(events) == 0 {
			t.Fatalf("trace %s is empty", lp)
		}
	}
	for _, lp := range []string{".lp0", ".lp1"} {
		_, series, err := obs.ReadProbesFile(probesPath + lp)
		if err != nil {
			t.Fatalf("probes %s: %v", lp, err)
		}
		if len(series) == 0 {
			t.Fatalf("probes %s hold no series", lp)
		}
		for _, s := range series {
			if len(s.Points) > maxPoints {
				t.Fatalf("probes %s: series %s holds %d points, over the configured %d", lp, s.Name, len(s.Points), maxPoints)
			}
		}
	}
}
