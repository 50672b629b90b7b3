GO ?= go

.PHONY: build vet lint lint-regress fix-check test race chaos chaos-resize stress-binary bench-alloc fuzz-smoke bench-smoke loc obs-smoke trace-smoke smoke-placement ci bench-skew bench-topology bench-placement bench-json-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis (internal/lint via cmd/rnblint): two
# interprocedural analyzers, each kept for a bug this repo shipped —
# lock-order cycles and sync.Cond misuse (lockorder), publish-freeze
# enforcement (frozen). Suppress a finding with //rnblint:ignore <analyzer>
# <reason> — the reason is mandatory, and a directive that stops
# matching anything is itself an error. The whole-repo run carries a wall-clock budget: the suite is
# meant to run on every push, and an analysis that creeps past
# $(LINT_BUDGET_SECS)s stops being one people run.
LINT_BUDGET_SECS ?= 120
lint:
	@start=$$(date +%s); \
	$(GO) run ./cmd/rnblint ./... || exit $$?; \
	elapsed=$$(( $$(date +%s) - start )); \
	echo "rnblint: clean in $${elapsed}s (budget $(LINT_BUDGET_SECS)s)"; \
	if [ $$elapsed -gt $(LINT_BUDGET_SECS) ]; then \
		echo "rnblint: exceeded the $(LINT_BUDGET_SECS)s budget — profile the analyzers before adding more"; \
		exit 1; \
	fi

# Regression lint: the distilled reproductions of bugs this repo
# actually shipped (dial-slot cond misuse, SetBase published-snapshot
# mutation) must keep tripping their analyzers forever.
lint-regress:
	$(GO) test -count=1 -run 'TestHistoricalRegressions' -v ./internal/lint

# Fail if any file is not gofmt-formatted (fixtures included).
fix-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./...

# Full suite under the race detector (the resilience layer is
# concurrency-heavy: fanout, async half-open probes, injector state).
race:
	$(GO) test -race ./...

# Fault-injection suite, repeated to shake out timing flakes in the
# breaker/flap recovery paths.
chaos:
	$(GO) test -race -count=5 -run 'TestChaos' .

# Live-elasticity suite under the race detector: the seeded resize
# storm (membership churn + crashes under load, zero failed idempotent
# reads, leakcheck), every other test in topology_e2e_test.go (among
# them TestResizeUnderConcurrentSets: no stale readable copy after an
# add, a drain and a rejoin under concurrent Sets), and elastic_test.go's
# drain regressions (the forced-drain deadline, placement survives a
# drain and rejoin).
chaos-resize:
	$(GO) test -race -count=3 -run 'TestResize|TestRejoin|TestSetServers|TestAddServer|TestRemoveServer|TestTierSnapshot|TestDrain' .

# Binary-transport stress under the race detector: 64 goroutines on a
# binary-pooled client (quiet-get pipelining) plus the kill-mid-pipeline
# chaos drill, both ending in a goroutine leakcheck; then the
# transport's own tests, twice, so the reader-role hand-off, the
# last-writer flush and the teardown paths are shaken on every push,
# with the liveness tests of the split exchange (crossed sends and
# collects with requests and replies past the socket buffers, a write
# behind a reader, a kill between send and collect, Close with a request
# uncollected); then the write-back queue's, which writers take under
# the write mutex they share with pipelined callers; then the four
# lifetime tests, since a request's keys and values are views of the
# connection's read memory that the next read overwrites, and the two
# reply-window tests, since a multi-get's transactions decode into
# windows of one item array, possibly on another caller's goroutine;
# with them the store's races of verbs on one key (set and get, a
# conditional set against touch, add against a newer set, a write refused
# for capacity), since one mutex serialises every verb of a server.
stress-binary:
	$(GO) test -race -count=2 -run 'TestBinaryPooledClient' .
	$(GO) test -race -count=2 -run 'TestPool|TestBinaryPool' ./internal/memcache
	$(GO) test -race -count=2 -run 'TestWriteBack|TestAddLater' . ./internal/memcache
	$(GO) test -race -count=2 -run 'TestServerCopiesKeysForOtherBackends|TestStoreNeverKeepsAliasedKey|TestServerCopiesItemsForOtherBackends|TestStoreNeverKeepsAliasedValue|TestReplyWindowIsolation|TestReplyWindowReadAhead|TestStoreConcurrentAccess|TestStoreConditionalSetRacesTouch|TestStoreAddNeverReplacesNewerSet|TestStoreRefusedWriteDropsOldValue' ./internal/memcache

# Allocation-budget regression gates (testing.AllocsPerRun) on the
# transport, server, planner and client hot paths: text/binary
# encode+decode, the end-to-end multiget on one and four connections,
# the server's own share
# of a get / multiget / set on both wires (TestAllocBudgetServe, driven
# over an in-memory connection), core's Plan build (fresh, and into a
# reused Plan: zero), and the root
# client's Get / GetMulti / Set and its round-2 recovery request with
# ten write-backs. Run without -race — the race runtime's
# shadow allocations distort the counts, so the gates are build-tagged
# !race.
bench-alloc:
	$(GO) test -count=1 -run 'TestAllocBudget' -v . ./internal/memcache ./internal/core

# Fuzz smoke: ten seconds each on the three fuzzers that feed bytes to
# the server's request path and the clients' demultiplexers. A crasher
# lands in internal/memcache/testdata/fuzz and is checked in as a
# regression seed.
FUZZTIME ?= 10s
fuzz-smoke:
	for f in FuzzTextProtocol FuzzCrossProtocol FuzzBinaryDemux; do \
		$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime=$(FUZZTIME) ./internal/memcache || exit 1; \
	done

# bench/ is its own module, so `go test ./...` at the root never
# compiles it: an API the benchmark uses could be deleted without any
# root target noticing. Vet it and run its own tests (~5 s).
bench-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# Non-test line counts of the packages ROADMAP's "smaller client",
# "one span model", "one metrics registry" and "two doors" items track,
# plus the membership layer (internal/topology, internal/hashring), the
# set-cover heuristics and the tier simulator (internal/setcover,
# internal/cluster), so simplicity PRs quote the same numbers. The last
# line is the diet item's tracked number: root plus internal/memcache.
loc:
	@for d in . internal/memcache internal/core internal/topology internal/hashring internal/lint internal/obs internal/metrics internal/hotspot internal/proxy internal/sim internal/setcover internal/cluster cmd/rnbproxy cmd/rnbmemd cmd/rnbsim; do \
		printf '%-18s %s\n' $$d $$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l); \
	done
	@printf '%-18s %s\n' '. + memcache' $$(ls *.go internal/memcache/*.go | grep -v _test.go | xargs cat | wc -l)

# Observability smoke: boot rnbmemd backends + rnbproxy -debug-addr,
# drive traffic, and assert /metrics serves the promised families and
# /debug/requests dumps flight-recorder spans.
obs-smoke:
	./scripts/obs_smoke.sh

# Distributed-tracing smoke: boot a traced rnbmemd + rnbproxy -trace,
# drive a multiget through the chain, and assert the trace propagated
# (memd_traced_transactions > 0), /debug/trace/<id> serves Chrome
# trace-event JSON, and the -trace-dump file is written on shutdown.
trace-smoke:
	./scripts/trace_smoke.sh

# Placement smoke: a small-parameter run of the placement experiment
# (CBC vs random vs adaptive under adversarial traffic) plus the
# property tests behind it — the construction's <= t guarantee, the
# balanced-assignment solver, and the adversarial generator.
smoke-placement:
	$(GO) run ./cmd/rnbsim -requests 400 -warmup 400 -scale 40 placement
	$(GO) test -run 'CBC|Balanced|Adversarial' ./internal/cbc ./internal/core ./internal/workload

ci: build vet lint fix-check race chaos chaos-resize stress-binary bench-alloc fuzz-smoke bench-smoke obs-smoke trace-smoke smoke-placement bench-json-check

# Skewed-workload benchmark: fixed-r vs adaptive hot-key replication
# (internal/hotspot) across a Zipf-exponent sweep, machine-readable
# output in BENCH_hotspot.json.
bench-skew:
	$(GO) run ./cmd/rnbsim -json BENCH_hotspot.json hotspot

# Placement benchmark: per-request bottleneck (keys at the busiest
# server) for random replication vs adaptive boosting vs the
# Combinatorial Batch Code placement, under Zipf and adversarial
# traffic — machine-readable output in BENCH_placement.json.
bench-placement:
	$(GO) run ./cmd/rnbsim -json BENCH_placement.json placement

# Resize benchmark: ring continuum vs jump consistent hash on a live
# resize — key-movement fraction (add/remove) and post-resize load
# skew — machine-readable output in BENCH_topology.json.
bench-topology:
	$(GO) run ./cmd/rnbsim -json BENCH_topology.json topology

# The checked-in BENCH_*.json are deterministic outputs of rnbsim:
# regenerate all three into a temporary directory and fail on any byte
# that differs, so a change to what they measure cannot leave them stale.
bench-json-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/rnbsim" ./cmd/rnbsim || exit 1; \
	for e in hotspot:bench-skew placement:bench-placement topology:bench-topology; do \
		exp=$${e%%:*}; \
		"$$tmp/rnbsim" -json "$$tmp/BENCH_$$exp.json" $$exp >/dev/null || exit 1; \
		cmp "$$tmp/BENCH_$$exp.json" BENCH_$$exp.json || { echo "BENCH_$$exp.json is stale: run make $${e#*:}"; exit 1; }; \
	done; \
	echo "bench-json-check: BENCH_hotspot.json, BENCH_placement.json, BENCH_topology.json are current"
