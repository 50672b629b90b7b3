// External test package: if the loader drops these files (the
// historical XTestGoFiles/GoFiles mixup), the want below goes
// unmatched and the golden test fails.
package extest_test

import (
	"sync"
	"testing"
	"time"

	"rnb/internal/lint/testdata/src/extest"
)

var mu sync.Mutex

func settle() {
	mu.Lock()
	defer mu.Unlock()
	time.Sleep(time.Millisecond) // want lockheld "time.Sleep while mu is held"
}

func TestDouble(t *testing.T) {
	settle()
	if got := extest.Double(2); got != 4 {
		t.Fatalf("Double(2) = %d, want 4", got)
	}
}
