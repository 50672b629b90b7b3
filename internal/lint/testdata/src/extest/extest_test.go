// External test package: if the loader drops these files (the
// historical XTestGoFiles/GoFiles mixup), the want below goes
// unmatched and the golden test fails.
package extest_test

import (
	"sync"
	"testing"

	"rnb/internal/lint/testdata/src/extest"
)

var mu sync.Mutex

func relock() {
	mu.Lock()
	defer mu.Unlock()
	mu.Lock() // want lockorder "guaranteed self-deadlock"
}

func TestDouble(t *testing.T) {
	if got := extest.Double(2); got != 4 {
		t.Fatalf("Double(2) = %d, want 4", got)
	}
}
