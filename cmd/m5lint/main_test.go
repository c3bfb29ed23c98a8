package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module named m5 (the analyzers'
// scope tables key on the real module path) and chdirs into it, so the
// driver's "." module root points at the fixture.
func writeModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module m5\n\ngo 1.22\n"
	for name, src := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
}

// dirtySim is a fixture package inside the determinism scope with one
// unambiguous violation (a wall-clock read).
const dirtySim = `package sim

import "time"

func Now() int64 { return time.Now().UnixNano() }
`

const cleanSim = `package sim

func Tick(t int64) int64 { return t + 1 }
`

func TestExitCleanModule(t *testing.T) {
	writeModule(t, map[string]string{"internal/sim/sim.go": cleanSim})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, &stdout, &stderr)
	}
	if stdout.Len() != 0 {
		t.Fatalf("clean run wrote to stdout: %q", &stdout)
	}
}

func TestExitFindingsStreamSplit(t *testing.T) {
	writeModule(t, map[string]string{"internal/sim/sim.go": dirtySim})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, &stderr)
	}
	if !strings.Contains(stdout.String(), "[determinism]") {
		t.Fatalf("findings missing from stdout: %q", &stdout)
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Fatalf("summary missing from stderr: %q", &stderr)
	}
	if strings.Contains(stderr.String(), "[determinism]") {
		t.Fatalf("findings leaked to stderr: %q", &stderr)
	}
}

func TestExitLoadFailure(t *testing.T) {
	writeModule(t, map[string]string{"internal/sim/sim.go": cleanSim})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./no/such/dir"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr: %s", code, &stderr)
	}
	if stdout.Len() != 0 {
		t.Fatalf("load failure wrote to stdout (must stay parseable): %q", &stdout)
	}
	if stderr.Len() == 0 {
		t.Fatal("load failure left stderr empty")
	}
}

func TestJSONOutput(t *testing.T) {
	writeModule(t, map[string]string{"internal/sim/sim.go": dirtySim})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, &stderr)
	}
	var findings []map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, &stdout)
	}
	if len(findings) == 0 {
		t.Fatal("JSON findings array is empty for a dirty module")
	}
	if a, _ := findings[0]["Analyzer"].(string); a != "determinism" {
		t.Fatalf("finding analyzer = %q, want determinism", a)
	}
}

func TestJSONOutputCleanIsEmptyArray(t *testing.T) {
	writeModule(t, map[string]string{"internal/sim/sim.go": cleanSim})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", code, &stderr)
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Fatalf("clean -json stdout = %q, want []", got)
	}
}

// TestUnknownFlagIsUsageError pins -json as the only flag: anything
// else, including the removed -fix and the vet-tool probes, exits 2
// before loading a package.
func TestUnknownFlagIsUsageError(t *testing.T) {
	for _, flag := range []string{"-fix", "-V=full", "-flags"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{flag, "./..."}, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit = %d, want 2", flag, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "unknown flag") {
			t.Errorf("%s: stdout %q, stderr %q", flag, &stdout, &stderr)
		}
	}
}
