package main

import (
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildRnblint compiles the binary once into a test temp dir and
// returns its path.
func buildRnblint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rnblint")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runRnblint executes the binary from the repo root against the given
// arguments and returns stdout, stderr, and the exit code.
func runRnblint(t *testing.T, bin string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = "../.." // repo root, so fixture patterns resolve
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("run rnblint: %v", err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

func TestRnblintFindsViolations(t *testing.T) {
	bin := buildRnblint(t)
	stdout, stderr, code := runRnblint(t, bin, "./internal/lint/testdata/src/errwrap/bad")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "errwrap: error operand formatted with %v") {
		t.Errorf("stdout missing errwrap diagnostic:\n%s", stdout)
	}
	if !strings.Contains(stdout, "bad.go:13:") {
		t.Errorf("stdout missing positional prefix for the first finding:\n%s", stdout)
	}
	if !strings.Contains(stderr, "rnblint: 4 issue(s)") {
		t.Errorf("stderr missing issue count:\n%s", stderr)
	}
}

func TestRnblintCleanPackageExitsZero(t *testing.T) {
	bin := buildRnblint(t)
	stdout, stderr, code := runRnblint(t, bin, "./internal/lint/testdata/src/errwrap/good")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean run should print nothing, got:\n%s", stdout)
	}
}

func TestRnblintOnlySubset(t *testing.T) {
	bin := buildRnblint(t)
	// thelper has nothing to say about the errwrap fixture, so the
	// subset run must be clean even though the package has violations.
	_, _, code := runRnblint(t, bin, "-only", "thelper", "./internal/lint/testdata/src/errwrap/bad")
	if code != 0 {
		t.Fatalf("-only thelper exit code = %d, want 0", code)
	}
	_, stderr, code := runRnblint(t, bin, "-only", "nosuch", "./internal/lint/testdata/src/errwrap/bad")
	if code != 2 {
		t.Fatalf("-only nosuch exit code = %d, want 2\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, `unknown analyzer "nosuch"`) {
		t.Errorf("stderr missing unknown-analyzer error:\n%s", stderr)
	}
}

func TestRnblintList(t *testing.T) {
	bin := buildRnblint(t)
	stdout, _, code := runRnblint(t, bin, "-list")
	if code != 0 {
		t.Fatalf("-list exit code = %d, want 0", code)
	}
	for _, name := range []string{
		"atomiconly", "blockleak", "errwrap", "frozen", "lockheld",
		"lockorder", "seededrand", "thelper",
	} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout)
		}
	}
}

func TestRnblintJSONOutput(t *testing.T) {
	bin := buildRnblint(t)
	stdout, _, code := runRnblint(t, bin, "-json", "./internal/lint/testdata/src/errwrap/bad")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s", code, stdout)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d JSON lines, want 4:\n%s", len(lines), stdout)
	}
	for _, line := range lines {
		var rec struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSON line %q: %v", line, err)
		}
		if rec.File == "" || rec.Line == 0 || rec.Column == 0 {
			t.Errorf("record missing position: %q", line)
		}
		if rec.Analyzer != "errwrap" || rec.Message == "" {
			t.Errorf("record missing analyzer/message: %q", line)
		}
	}
}
