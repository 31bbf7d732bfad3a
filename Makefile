# Tier-1 verification lives behind `make ci`: lint (gofmt gate + vet) +
# build + race-enabled tests + the correctness harness (differential oracles + property checks
# under -race), the obs-lint telemetry-schema gate, a bounded fuzz smoke of
# every fuzz target, a short parallel-throughput smoke run of saccs-bench, a
# vet + short test of the benchmark/ module, and the coverage gate. The race
# run uses -short because the full experiment harness (internal/experiments
# regenerates every paper table) exceeds go test's timeout under the race
# detector; -short skips only those heavy regenerators — the concurrency
# tests (saccs root package, internal/obs, internal/index) always run.
# `make race-full` races the whole suite when you have ~an hour.

GO ?= go

# Per-target budget for fuzz-smoke. Native fuzzing keeps any crashers it
# finds under testdata/fuzz/ — commit them as regression seeds.
FUZZTIME ?= 30s

# Minimum acceptable total test coverage (percent), measured by `make cover`.
# Recorded from the seed tree; raise it when coverage genuinely improves,
# never lower it to make a PR pass.
COVER_BASELINE ?= 77.3

.PHONY: ci lint vet build deps-check test test-short race race-full bench bench-smoke \
	bench-ingest bench-serve benchmark-check check obs-lint fuzz-smoke cover loc

ci: lint build deps-check race check obs-lint fuzz-smoke bench-smoke benchmark-check cover

# obs-lint gates the telemetry schema: every stage.* span the query pipeline
# emits must have a matching registered stage-latency histogram and must
# appear in the wide-event schema (obs.StageNames), so a renamed span can't
# silently fall out of /metrics or the wide events.
obs-lint:
	$(GO) test -count=1 -run '^TestObsLint' .

# lint gates formatting and static analysis: gofmt must report no files, and
# go vet must pass (with variable-shadow checking when the external shadow
# analyzer is installed — it is optional, CI images without it still get the
# full built-in vet suite).
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v shadow >/dev/null 2>&1; then \
		$(GO) vet -vettool=$$(command -v shadow) ./... ./cmd/... ./examples/...; \
	else \
		echo "shadow analyzer not installed; skipping shadow vet"; \
	fi

# ./... covers every package in the module; cmd/ and examples/ are listed
# explicitly so the gate still covers them if the root pattern is narrowed.
vet:
	$(GO) vet ./... ./cmd/... ./examples/...

# build also cross-compiles for arm64, so the pure-Go twins (the !amd64
# files) of every assembly entry point in internal/mat keep building.
build:
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./...

# deps-check keeps the paper's evaluation out of the server binary: Table 2's
# crowd ground truth, its IR and SIM baselines and the experiment
# regenerators are linked by the benchmark tool, never by cmd/saccs-server,
# which reaches the trained model through internal/core alone.
deps-check:
	@bad=$$($(GO) list -deps ./cmd/saccs-server | grep -E '^saccs/internal/(experiments|crowd|ir|simbaseline)$$'); \
	if [ -n "$$bad" ]; then \
		echo "cmd/saccs-server links paper-evaluation packages:"; echo "$$bad"; exit 1; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race -short -timeout=30m ./...

race-full:
	$(GO) test -race -timeout=90m ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-smoke exercises the parallel query path end-to-end for a fraction of
# a second — enough to catch a deadlock or crash in the concurrent pipeline
# without slowing CI. Both passes run on facade clients (saccs.New, the
# served model and query path, extraction cache off). -qps-guard fails the
# run if a 1-shard client queried by 4 goroutines drops below the same
# client at 1 goroutine (the parallel-scaling regression this repo once
# shipped: more goroutines, fewer queries), or if a 4-shard client queried
# by 4 goroutines drops below that 1-shard serial baseline, i.e. ranking
# four shards per query may not cost more than the second processor buys.
# Every decode is solo on its caller's goroutine, so both ratios are
# processor scaling: ~2x at the 2 Ps of the reference box, ~1x at
# GOMAXPROCS=1 (0.98-0.99 measured) — where the guards are a coin flip and
# bench-smoke is not meaningful. Five consecutive `make bench-smoke` runs on
# the reference box (go1.24.0, Xeon 2.10 GHz, nproc 2), all five passing:
# 4 goroutines / 1 goroutine 1.83 2.20 2.74 2.40 1.53; 4 shards x 4
# goroutines / 1 shard x 1 goroutine 1.75 1.85 2.46 1.87 1.42. The spread is
# the host's: the 300 ms single-goroutine pass moves with it most (1 095 to
# 1 657 QPS over the five runs).
# -quant-guard fails the run if the mixed-precision cold decode is not at
# least 1.5x the float64 decode (quantGuardMin in cmd/saccs-bench) — the
# quantized kernels' reason to exist. Ten earlier runs read 2.70 2.72 2.17
# 2.80 2.57 2.61 2.54 2.73 2.62 2.64 (ISSUE 19's five: 2.13 2.96 2.43 2.88
# 2.82); 1.5 is the largest half-integer that all of them clear by at least
# 15 % (the 2.17 run rules out 2). The floor was 6x against 7-9x until float64 inference moved from a MulVec per token onto the
# GEMM forward: float64 got ~2.6x faster (13 tokens, interleaved runs of the
# two binaries: 872-943 -> 319-375 us); mixed did not move beyond what
# function layout alone moves this binary (DESIGN.md §14). The five
# runs above read 2.63 2.31 2.04 2.12 2.57.
# It writes no BENCH.json.
bench-smoke:
	$(GO) run ./cmd/saccs-bench -only parallel,quant -parallel 4 -parallel-dur 300ms -qps-guard -quant-guard -bench-out ""

# benchmark-check vets and short-tests the benchmark/ module. It is a module
# of its own (not under ./...), built against this tree's facade and the
# exported functions of internal/search and internal/tokenize — so a signature
# change that breaks its build fails here, in tier-1, instead of in the
# performance gate. -short skips the smoke test that trains a pipeline; what
# runs (generators, estimators, output checks, schema lint) takes seconds.
benchmark-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test -short ./...

# bench-serve drives the real HTTP tier (cmd/saccs-server's stack) with an
# open-loop load generator at shard counts {1,2,4}: fixed arrival rates on a
# ladder calibrated against the 1-shard server, latency quantiles measured
# from scheduled arrival time (no coordinated omission), and the max
# sustained rate per shard count. Appends the serve section to BENCH.json.
# (The sharding regression gate lives in bench-smoke's parallel section,
# where it is independent of the machine's core count.)
bench-serve:
	$(GO) run ./cmd/saccs-bench -only serve -parallel-dur 2s

# bench-ingest measures the streaming-ingest tier on the real filesystem:
# durable append throughput under FsyncAlways and FsyncBatch, the
# durable-ack and publish-lag latency quantiles, and the crash-recovery
# replay rate at reopen. Appends the ingest section to BENCH.json.
bench-ingest:
	$(GO) run ./cmd/saccs-bench -only ingest -parallel-dur 2s

# check runs the correctness harness under the race detector: the
# internal/check differential oracles (serial vs parallel build, persisted vs
# rebuilt index, prepared vs string-walking similarity, serial vs concurrent
# query) and property/metamorphic checks (threshold monotonicity, tag strengthening,
# rank permutation invariance, slot word boundaries), plus every committed
# fuzz seed corpus replayed as plain regression tests. It also runs the
# trained-weight fingerprint (TestTrainTaggerFingerprint: the served recipe
# trained on the vector kernels and again on the pure-Go ones must hash to
# the recorded value), which -short skips and the race detector would make
# take minutes.
check:
	$(GO) test -race -count=1 ./internal/check/...
	$(GO) test -count=1 -run '^TestTrainTaggerFingerprint$$' ./internal/core/
	$(GO) test -race -count=1 -run '^Fuzz' ./internal/tokenize/ ./internal/search/ \
		./internal/parse/ ./internal/tagger/ ./internal/index/ ./internal/ingest/ \
		./internal/mat/ ./internal/sim/

# fuzz-smoke gives each native fuzz target a bounded budget ($(FUZZTIME) per
# target). `go test -fuzz` accepts exactly one target per invocation, hence
# one line per function. New crashers land in testdata/fuzz/ — commit them.
fuzz-smoke:
	$(GO) test -fuzz '^FuzzWords$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/tokenize/
	$(GO) test -fuzz '^FuzzSentences$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/tokenize/
	$(GO) test -fuzz '^FuzzParseUtterance$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/search/
	$(GO) test -fuzz '^FuzzBuildTree$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/parse/
	$(GO) test -fuzz '^FuzzPredictDecode$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/tagger/
	$(GO) test -fuzz '^FuzzSnapshotDecode$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/index/
	$(GO) test -fuzz '^FuzzWALDecode$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/ingest/
	$(GO) test -fuzz '^FuzzQuantRoundTrip$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/mat/
	$(GO) test -fuzz '^FuzzPreparedPhrase$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/sim/

# cover measures total -short coverage and fails if it regresses below
# COVER_BASELINE (the value recorded from the seed tree).
cover:
	$(GO) test -short -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{sub(/%/, "", $$NF); print $$NF}'); \
	echo "total coverage: $$total% (baseline $(COVER_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN { exit (t+0 < b+0) ? 1 : 0 }' \
		|| { echo "coverage regressed below $(COVER_BASELINE)%"; exit 1; }

# loc prints non-test .go line counts (wc -l, nothing filtered): the five
# inference-engine packages and the module outside benchmark/ (ROADMAP item
# 2; 5558 and 24472 at a0bb2ef), and internal/obs (2394 at 5e139b5).
loc:
	@echo "mat+nn+bert+tagger+core: $$(ls internal/mat/*.go internal/nn/*.go internal/bert/*.go \
		internal/tagger/*.go internal/core/*.go | grep -v _test.go | xargs cat | wc -l)"
	@echo "internal/obs: $$(ls internal/obs/*.go | grep -v _test.go | xargs cat | wc -l)"
	@echo "module outside benchmark/: $$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' \
		! -path './.bench_build/*' | xargs cat | wc -l)"
