package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestShardedChaosPasses: chaos runs sharded like any other run, one fault
// plan per shard, with cross-shard 2PC traffic under write failures, and
// the drained machine recovers every acknowledged commit.
func TestShardedChaosPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs a sharded chaos simulation; skipped with -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "elchaos")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-shards", "3", "-cross-frac", "0.3", "-corrupt", "0", "-write-fail", "0.25")
	cmd.Dir = dir // a failing run dumps its traces into the working directory
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("elchaos: %v\n%s", err, out)
	}
	for _, w := range []string{"3 shard(s) (cross frac 0.30)", "verdict: PASS"} {
		if !strings.Contains(string(out), w) {
			t.Fatalf("output lacks %q:\n%s", w, out)
		}
	}
}
