// Package suppress exercises //rnblint:ignore directive handling:
// well-formed directives (own-line and trailing) silence the named
// analyzer, and malformed directives are themselves diagnostics and
// suppress nothing. Each function re-locks a held mutex, one lockorder
// finding apiece. Expectations for this package live in
// TestSuppressionDirectives, not in want comments, because the
// rnblint diagnostics land on comment-only lines.
package suppress

import "sync"

var mu sync.Mutex

func suppressedAbove() {
	mu.Lock()
	//rnblint:ignore lockorder fixture proves an own-line suppression covers the next line
	mu.Lock()
}

func suppressedTrailing() {
	mu.Lock()
	mu.Lock() //rnblint:ignore lockorder fixture proves a trailing suppression covers its own line
}

func suppressedList() {
	mu.Lock()
	//rnblint:ignore frozen,lockorder fixture proves a comma list names several analyzers
	mu.Lock()
}

func bareDirective() {
	mu.Lock()
	//rnblint:ignore
	mu.Lock()
}

func unknownAnalyzer() {
	mu.Lock()
	//rnblint:ignore nosuchanalyzer the analyzer name is checked before the reason
	mu.Lock()
}

func missingReason() {
	mu.Lock()
	//rnblint:ignore lockorder
	mu.Lock()
}

func deadDirective() {
	//rnblint:ignore lockorder well-formed but suppresses nothing: this line re-locks nothing
	mu.Lock()
	mu.Unlock()
}
