package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ellog/internal/config"
	"ellog/internal/obs"
)

// TestShardedRunHonoursObservabilitySection: a sharded run takes its
// trace and probe outputs from the configuration file's observability
// section, just as a single-log run does — per-LP trace files next to the
// configured path, one probes file whose series carry lp= labels and keep
// to the configured point budget.
func TestShardedRunHonoursObservabilitySection(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs a sharded simulation; skipped with -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "elsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
	_, series, err := obs.ReadProbesFile(probesPath)
	if err != nil {
		t.Fatal(err)
	}
	labelled := map[string]bool{}
	for _, s := range series {
		for _, lp := range []string{`lp="0"`, `lp="1"`} {
			if strings.Contains(s.Name, lp) {
				labelled[lp] = true
			}
		}
		if len(s.Points) > maxPoints {
			t.Fatalf("series %s holds %d points, over the configured %d", s.Name, len(s.Points), maxPoints)
		}
	}
	if len(labelled) != 2 {
		t.Fatalf("probes file has series for LPs %v of %d series, want both lp=\"0\" and lp=\"1\"", labelled, len(series))
	}
}
