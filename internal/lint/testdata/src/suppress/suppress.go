// Package suppress exercises //rnblint:ignore directive handling:
// well-formed directives (own-line and trailing) silence the named
// analyzer, and malformed directives are themselves diagnostics and
// suppress nothing. Expectations for this package live in
// TestSuppressionDirectives, not in want comments, because the
// rnblint diagnostics land on comment-only lines.
package suppress

import (
	"sync"
	"time"
)

var mu sync.Mutex

func suppressedAbove() {
	mu.Lock()
	defer mu.Unlock()
	//rnblint:ignore lockheld fixture proves an own-line suppression covers the next line
	time.Sleep(time.Millisecond)
}

func suppressedTrailing() {
	mu.Lock()
	defer mu.Unlock()
	time.Sleep(time.Millisecond) //rnblint:ignore lockheld fixture proves a trailing suppression covers its own line
}

func suppressedList() {
	mu.Lock()
	defer mu.Unlock()
	//rnblint:ignore lockheld,lockorder fixture proves a comma list names several analyzers
	time.Sleep(time.Millisecond)
}

func bareDirective() {
	mu.Lock()
	defer mu.Unlock()
	//rnblint:ignore
	time.Sleep(time.Millisecond)
}

func unknownAnalyzer() {
	mu.Lock()
	defer mu.Unlock()
	//rnblint:ignore nosuchanalyzer the analyzer name is checked before the reason
	time.Sleep(time.Millisecond)
}

func missingReason() {
	mu.Lock()
	defer mu.Unlock()
	//rnblint:ignore lockheld
	time.Sleep(time.Millisecond)
}

func deadDirective() {
	//rnblint:ignore lockheld well-formed but suppresses nothing: this line holds no lock
	time.Sleep(time.Millisecond)
}
