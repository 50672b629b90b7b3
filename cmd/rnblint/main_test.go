package main

import (
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
	stdout, stderr, code := runRnblint(t, bin, "./internal/lint/testdata/src/lockorder/bad")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "lockorder: lock ordering cycle: bad.left.mu -> bad.right.mu") {
		t.Errorf("stdout missing lockorder diagnostic:\n%s", stdout)
	}
	if !strings.Contains(stdout, "bad.go:27:2: ") {
		t.Errorf("stdout missing positional prefix for the first finding:\n%s", stdout)
	}
	if !strings.Contains(stderr, "rnblint: 6 issue(s)") {
		t.Errorf("stderr missing issue count:\n%s", stderr)
	}
}

func TestRnblintCleanPackageExitsZero(t *testing.T) {
	bin := buildRnblint(t)
	stdout, stderr, code := runRnblint(t, bin, "./internal/lint/testdata/src/lockorder/good")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean run should print nothing, got:\n%s", stdout)
	}
}

func TestRnblintOnlySubset(t *testing.T) {
	bin := buildRnblint(t)
	// frozen has nothing to say about the lockorder fixture, so the
	// subset run must be clean even though the package has violations.
	_, _, code := runRnblint(t, bin, "-only", "frozen", "./internal/lint/testdata/src/lockorder/bad")
	if code != 0 {
		t.Fatalf("-only frozen exit code = %d, want 0", code)
	}
	_, stderr, code := runRnblint(t, bin, "-only", "nosuch", "./internal/lint/testdata/src/lockorder/bad")
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
	names := []string{"frozen", "lockorder"}
	for _, name := range names {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout)
		}
	}
	if lines := strings.Count(stdout, "\n"); lines != len(names) {
		t.Errorf("-list printed %d analyzers, want %d:\n%s", lines, len(names), stdout)
	}
}
