package leakcheck_test

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"rnb/internal/leakcheck"
)

// TestNoFalsePositive arms the checker around a goroutine that exits
// before the test ends (via the settle window, not synchronization).
func TestNoFalsePositive(t *testing.T) {
	leakcheck.Check(t)
	done := make(chan struct{})
	go func() {
		close(done)
	}()
	<-done
}

// TestIgnoreList proves an extra ignore substring excuses a goroutine
// that would otherwise be reported.
func TestIgnoreList(t *testing.T) {
	// Register the stop cleanup BEFORE arming the checker: cleanups run
	// LIFO, so the leak diff executes while the lingerer is still alive
	// and only the ignore entry can excuse it.
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	leakcheck.Check(t, "leakcheck_test.intentionalLingerer")
	go intentionalLingerer(stop)
}

func intentionalLingerer(stop <-chan struct{}) {
	<-stop
}

// TestLeakDetected re-runs itself in a subprocess with the env gate
// set; the inner run leaks a goroutine on purpose and must fail with
// a leakcheck report.
func TestLeakDetected(t *testing.T) {
	if os.Getenv("LEAKCHECK_SELFTEST") == "1" {
		leakcheck.Check(t)
		hang := make(chan struct{})
		go func() {
			<-hang // leaks: nothing ever closes hang
		}()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestLeakDetected$", "-test.v")
	cmd.Env = append(os.Environ(), "LEAKCHECK_SELFTEST=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("inner run passed; want a leakcheck failure\n%s", out)
	}
	if !strings.Contains(string(out), "leakcheck: 1 goroutine(s) leaked") {
		t.Fatalf("inner run failed without a leakcheck report:\n%s", out)
	}
}
