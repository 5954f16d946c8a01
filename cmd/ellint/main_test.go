package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ellog/internal/lint"
)

// buildEllint compiles the binary once per test run.
func buildEllint(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the binary and type-checks modules; skipped with -short")
	}
	bin := filepath.Join(t.TempDir(), "ellint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const goMod = "module example.test/exit\n\ngo 1.22\n"

// TestExitCodes pins the documented contract: 0 clean, 1 findings, 3
// operational error — and -h lists every rule.
func TestExitCodes(t *testing.T) {
	bin := buildEllint(t)

	run := func(dir string, args ...string) (int, string) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err == nil {
			return 0, string(out)
		}
		exit, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("ellint %v: %v\n%s", args, err, out)
		}
		return exit.ExitCode(), string(out)
	}

	clean := writeModule(t, map[string]string{
		"go.mod": goMod,
		"p.go":   "package p\n\nfunc Add(a, b int) int { return a + b }\n",
	})
	if code, out := run(clean, "./..."); code != 0 {
		t.Errorf("clean module: exit %d, want 0\n%s", code, out)
	}

	dirty := writeModule(t, map[string]string{
		"go.mod": goMod,
		"p.go": `package p

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
	})
	if code, out := run(dirty, "./..."); code != 1 {
		t.Errorf("dirty module: exit %d, want 1\n%s", code, out)
	} else if !strings.Contains(out, "p.go:5:29: wallclock: time.Now reads the wall clock") {
		t.Errorf("dirty module: finding not reported as file:line:col: rule:\n%s", out)
	}

	// Outside any module: operational error.
	if code, out := run(t.TempDir(), "./..."); code != 3 {
		t.Errorf("no module: exit %d, want 3\n%s", code, out)
	}

	code, out := run(clean, "-h")
	if code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	for _, rule := range lint.Ruleset {
		if !strings.Contains(out, "  "+rule.Name+" ") {
			t.Errorf("-h does not list rule %s:\n%s", rule.Name, out)
		}
	}
}
