package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"ellog/internal/config"
	"ellog/internal/obs"
	"ellog/internal/sim"
)

// TestFailedRunKeepsItsOutputs: a run that ends with a non-zero exit status
// is the run whose trace one wants to read, so the trace must be whole — it
// parses to its last line and reaches the end of the run — and the probes
// and -json files must exist. The log is sized (4+4 blocks under the
// compressed mix) to kill transactions.
func TestFailedRunKeepsItsOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs half a second of wall time; skipped with -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "elreal")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cfg := config.Default()
	cfg.Generations = []int{4, 4}
	cfgPath := filepath.Join(dir, "cfg.json")
	if err := cfg.Save(cfgPath); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "t.jsonl")
	probesPath := filepath.Join(dir, "p.json")
	jsonPath := filepath.Join(dir, "r.json")
	out, err := exec.Command(bin, "-dir", filepath.Join(dir, "log"), "-config", cfgPath,
		"-compressed", "-runtime", "0.5", "-direct", "off",
		"-trace-out", tracePath, "-probes-out", probesPath, "-json", jsonPath).CombinedOutput()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 1 {
		t.Fatalf("want exit status 1 (insufficient log space), got %v\n%s", err, out)
	}
	events, err := obs.ReadTraceFile(tracePath)
	if err != nil {
		t.Fatalf("trace of the failed run does not parse: %v", err)
	}
	if len(events) == 0 || events[len(events)-1].At < 400*sim.Millisecond {
		t.Fatalf("trace holds %d events and stops short of the 0.5 s run", len(events))
	}
	if _, series, err := obs.ReadProbesFile(probesPath); err != nil || len(series) == 0 {
		t.Fatalf("probes file: %d series, err %v", len(series), err)
	}
	if _, err := os.Stat(jsonPath); err != nil {
		t.Fatal(err)
	}
}
