# Tier-1 verification for the MonetDB/XQuery reproduction.
#
# `make check` is the habit: build everything, vet everything (the xmark
# generator once shipped a vet failure that broke `go test`), then run
# the full test suite — including the differential harness in
# internal/difftest and the -race concurrency tests in internal/tx that
# guard the page-granular copy-on-write snapshot machinery — and then
# vet and test bench/, a module of its own (BENCHMARK.json runs it) that
# the root module's ./... does not reach: it imports internal packages,
# so it is what catches a change breaking an identifier the benchmark
# uses — and last the line-count ratchet (loc-check), so a local `make
# check` fails the diff CI's lint job would.

GO ?= go

.PHONY: check build vet test race bench-check bench bench-json lint loc loc-check fuzz server-smoke repl-smoke

check: build vet race bench-check loc-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The paper's evaluation benchmarks (Figure 9, insert scaling, the
# page-COW transaction cost, the versioned-snapshot read path, ...).
# Narrow with BENCH=<regexp>.
BENCH ?= .
bench:
	$(GO) test -run xxx -bench '$(BENCH)' -benchmem .

# bench-json records the same run as go-test JSON events in BENCH_ci.json
# (the per-commit benchmark artifact CI uploads; each event's Output
# lines carry the benchstat-parsable result text).
bench-json:
	$(GO) test -run xxx -bench '$(BENCH)' -benchmem -json . > BENCH_ci.json
	@tail -n 3 BENCH_ci.json

# Formatting + static analysis. staticcheck is optional locally (the CI
# lint job installs it); gofmt and vet always run.
lint:
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs it)"; \
	fi

# Line-count ratchet: `make loc` prints the non-test Go lines of the
# root module (bench/ is its own module), then the same count without
# the oracle harness (internal/difftest + internal/naive live in
# non-test files only because several packages' tests import them);
# `make loc-check` fails when the second exceeds LOC_CEILING, so that
# extending the harness costs the product nothing. A change that needs
# more lines raises the ceiling in its own diff, where a reviewer sees
# it.
LOC_CEILING = 17392
LOC_FILES = find . -name '*.go' -not -name '*_test.go' -not -path './bench/*'
loc:
	@echo "$$($(LOC_FILES) | xargs cat | wc -l) non-test Go lines in the root module"
	@echo "$$($(LOC_FILES) -not -path './internal/difftest/*' -not -path './internal/naive/*' | xargs cat | wc -l) without internal/difftest + internal/naive"

loc-check:
	@n=$$($(MAKE) -s loc | awk 'NR==2 {print $$1}'); if [ $$n -gt $(LOC_CEILING) ]; then \
		echo "non-test Go lines without the harness: $$n > LOC_CEILING $(LOC_CEILING)"; exit 1; \
	else echo "non-test Go lines without the harness: $$n (ceiling $(LOC_CEILING))"; fi

# server-smoke: end-to-end daemon check. Starts mxqd, drives it with
# mxqload (SMOKE_SESSIONS concurrent sessions, SMOKE_DURATION, XMark SF
# 0.01, 5% updates), requires zero request errors and zero overload
# rejections, then pipes a short script (docs, q, stats, explain, quit)
# into mxqshell -addr and requires exit 0, and exit 1 both from a script
# holding one failing command and from an -addr with no listener (port
# 1). Then it SIGTERMs the daemon and requires a clean drain. The load
# report (qps, p50_ms, p99_ms, ...) is appended as one JSON line to
# BENCH_ci.json so the CI artifact carries the served-path numbers next
# to the library benchmarks.
SMOKE_SESSIONS ?= 200
SMOKE_DURATION ?= 10s
SMOKE_ADDR ?= 127.0.0.1:4479
server-smoke:
	$(GO) build -o /tmp/mxqd-smoke ./cmd/mxqd
	$(GO) build -o /tmp/mxqload-smoke ./cmd/mxqload
	$(GO) build -o /tmp/mxqshell-smoke ./cmd/mxqshell
	@set -e; \
	/tmp/mxqd-smoke -addr $(SMOKE_ADDR) -max-waiters 4096 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	sleep 1; \
	if /tmp/mxqload-smoke -addr $(SMOKE_ADDR) -sessions $(SMOKE_SESSIONS) \
		-duration $(SMOKE_DURATION) -sf 0.01 -name mxqd_smoke \
		> /tmp/mxqload-smoke.json; then ok=1; else ok=0; fi; \
	cat /tmp/mxqload-smoke.json; \
	cat /tmp/mxqload-smoke.json >> BENCH_ci.json; \
	printf 'docs\nq xmark count(//person)\nstats xmark\nexplain xmark //person\nquit\n' \
		| /tmp/mxqshell-smoke -addr $(SMOKE_ADDR) || { echo "mxqshell script failed"; ok=0; }; \
	st=0; printf 'q xmark //[bad\nquit\n' | /tmp/mxqshell-smoke -addr $(SMOKE_ADDR) || st=$$?; \
	test $$st -eq 1 || { echo "mxqshell exited $$st after a failing command, want 1"; ok=0; }; \
	st=0; /tmp/mxqshell-smoke -addr 127.0.0.1:1 </dev/null || st=$$?; \
	test $$st -eq 1 || { echo "mxqshell exited $$st with no server, want 1"; ok=0; }; \
	kill -TERM $$pid; \
	wait $$pid; \
	trap - EXIT; \
	test $$ok -eq 1

# repl-smoke: end-to-end replication check. Starts a durable primary
# that checkpoints every REPL_CKPT_RECORDS commits, loads it and drives
# it closed-loop, then restarts it over the same -dir (SIGTERM, clean
# drain) — so the follower meets a primary whose document is on disk
# but not yet attached — requires a second mxqd over the running
# primary's -dir to be refused (non-zero exit, the lock error on stderr,
# under a 10 s timeout in case it is not: the one check with two real
# processes over one directory), then starts a follower (mxqd -follow),
# and
# drives the pair open-loop with replica-routed read-your-writes reads
# (-rate, queries to the follower carrying the session's last commit
# LSN). Requires zero request errors, zero stale reads (every RYW read
# must be served within the wait budget, never silently stale) and full
# lag convergence after the run (-max-lag 0). Both load reports —
# closed-loop primary, open-loop with replica lag — are appended to
# BENCH_ci.json.
REPL_PRIMARY ?= 127.0.0.1:4489
REPL_FOLLOWER ?= 127.0.0.1:4490
REPL_CKPT_RECORDS ?= 100
repl-smoke:
	$(GO) build -o /tmp/mxqd-smoke ./cmd/mxqd
	$(GO) build -o /tmp/mxqload-smoke ./cmd/mxqload
	@set -e; \
	tmp=$$(mktemp -d); \
	primary="/tmp/mxqd-smoke -addr $(REPL_PRIMARY) -dir $$tmp/primary -nosync \
		-ckpt-records $(REPL_CKPT_RECORDS) -max-waiters 4096"; \
	$$primary & \
	ppid=$$!; fpid=; \
	trap 'kill $$ppid $$fpid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	sleep 1; \
	if /tmp/mxqload-smoke -addr $(REPL_PRIMARY) -sessions 50 -duration 5s -sf 0.005 \
		-name mxqd_repl_primary_closed > /tmp/mxqload-repl1.json; then ok1=1; else ok1=0; fi; \
	kill -TERM $$ppid; wait $$ppid; \
	$$primary & \
	ppid=$$!; \
	sleep 1; \
	if timeout 10 /tmp/mxqd-smoke -addr $(REPL_FOLLOWER) -dir $$tmp/primary 2>$$tmp/second.err; then \
		echo "a second mxqd opened the data directory of a running mxqd"; exit 1; \
	fi; \
	grep -q "data directory is in use" $$tmp/second.err || { cat $$tmp/second.err; exit 1; }; \
	/tmp/mxqd-smoke -addr $(REPL_FOLLOWER) -dir $$tmp/follower -nosync -follow $(REPL_PRIMARY) \
		-max-waiters 4096 & \
	fpid=$$!; \
	sleep 1; \
	if /tmp/mxqload-smoke -addr $(REPL_PRIMARY) -replica $(REPL_FOLLOWER) -sf 0 \
		-sessions 50 -rate 2000 -duration 5s -max-lag 0 \
		-name mxqd_repl_ryw_open > /tmp/mxqload-repl2.json; then ok2=1; else ok2=0; fi; \
	cat /tmp/mxqload-repl1.json /tmp/mxqload-repl2.json; \
	cat /tmp/mxqload-repl1.json /tmp/mxqload-repl2.json >> BENCH_ci.json; \
	kill -TERM $$fpid; wait $$fpid; \
	kill -TERM $$ppid; wait $$ppid; \
	trap - EXIT; \
	rm -rf $$tmp; \
	test $$ok1 -eq 1 && test $$ok2 -eq 1

# Native fuzz smoke over the text-input surfaces (the XPath compiler,
# the XUpdate parser and the XML tokenizer under the shredder, the last
# two differentially against the encoding/xml walks they replaced), the
# evaluation-side differential fuzzer (compiled plan vs the
# node-at-a-time oracle in oracle_test.go vs the plan over the naive
# dense store), the checkpoint chunk decoder (bytes from disk or from a
# primary: no panic, bounded allocation, accepted input re-encodes to
# itself), the checkpoint load (one chunk of a small churned store's
# manifest replaced: the load refuses it, or returns a store whose
# invariants hold and that encodes afresh to the same chunks), the pack
# reader under the chunk store (bytes from disk,
# through the index and then through every entry it accepts: no panic,
# allocation bounded by a fixed multiple of the file's size — a raw
# length is only believed of stored bytes that could inflate to it —
# accepted entries inside the file; written packs of compressible,
# incompressible and empty chunks round-trip, deflated only where that
# is shorter; a stream that inflates to fewer or more bytes than its
# indexed raw length is a failed copy, not an error, not a short chunk),
# the serializer's column kernel against its reference body (any
# document the shredder accepts, built into small pages and changed by a
# few deletes and inserts: equal bytes, and text equal to the XPath
# string value), the wire frame and payload decoder (bytes
# from any peer: no panic, no allocation above the frame limit, accepted
# frames round-trip), the WAL record decoder (a WALRecords payload
# from a primary, or a segment's record: no panic, allocation bounded by
# the input, accepted records re-encode to themselves and replay into a
# small store without a panic, its invariants whole) and the
# follower's ChunkData batch decoder (a batch of chunks from a primary:
# no panic, an accepted batch re-encodes to itself). Go allows one
# -fuzz target per invocation; -fuzzminimizetime=1x keeps short runs
# fuzzing instead of minimizing.
# Raise FUZZTIME for a real session.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run xxx -fuzz FuzzXPathParse -fuzztime $(FUZZTIME) -fuzzminimizetime=1x ./internal/xpath
	$(GO) test -run xxx -fuzz FuzzXPathEval -fuzztime $(FUZZTIME) -fuzzminimizetime=1x ./internal/xpath
	$(GO) test -run xxx -fuzz FuzzXUpdateParse -fuzztime $(FUZZTIME) -fuzzminimizetime=1x ./internal/xupdate
	$(GO) test -run xxx -fuzz FuzzShredMatchesStdlib -fuzztime $(FUZZTIME) -fuzzminimizetime=1x ./internal/shred
	$(GO) test -run xxx -fuzz FuzzChunkDecode -fuzztime $(FUZZTIME) -fuzzminimizetime=1x ./internal/core
	$(GO) test -run xxx -fuzz FuzzLoadChunked -fuzztime $(FUZZTIME) -fuzzminimizetime=1x ./internal/core
	$(GO) test -run xxx -fuzz FuzzPackOpen -fuzztime $(FUZZTIME) -fuzzminimizetime=1x ./internal/chunkstore
	$(GO) test -run xxx -fuzz FuzzSerializeMatchesReference -fuzztime $(FUZZTIME) -fuzzminimizetime=1x ./internal/serialize
	$(GO) test -run xxx -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME) -fuzzminimizetime=1x ./internal/wire
	$(GO) test -run xxx -fuzz FuzzRecordDecode -fuzztime $(FUZZTIME) -fuzzminimizetime=1x ./internal/wal
	$(GO) test -run xxx -fuzz FuzzChunkBatch -fuzztime $(FUZZTIME) -fuzzminimizetime=1x ./internal/repl
