# Tier-1 verification lives behind `make ci`: lint (gofmt gate + vet) +
# build + race-enabled tests + the correctness harness (differential oracles + property checks
# under -race, and the paper tables' bit pins without it), the obs-lint telemetry-schema gate, a bounded fuzz smoke of
# every fuzz target, a vet + short test of the benchmark/ module, the coverage
# gate, one run of every benchmark body, and last a short parallel-throughput
# smoke run of saccs-bench: its
# timing guards are the one step that can fail on a noisy host, so every
# other gate has run by the time they do. The race
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
# Raised from the seed tree's 77.3 once the tree read 80.2; raise it when
# coverage genuinely improves, never lower it to make a PR pass.
COVER_BASELINE ?= 79.5

.PHONY: ci lint vet build deps-check test test-short race race-full bench bench-once bench-smoke \
	bench-serve benchmark-check check pins obs-lint fuzz-smoke cover loc

# ci runs each target in this order, one `make` per target, and prints each
# target's wall time: after every target, and as a table at the end (or when
# a target fails, which stops the run with that target's exit status).
CI_TARGETS = lint build deps-check race check obs-lint fuzz-smoke benchmark-check cover bench-once bench-smoke

ci:
	@summary=""; \
	for t in $(CI_TARGETS); do \
		start=$$(date +%s%N); \
		$(MAKE) --no-print-directory $$t; rc=$$?; \
		line=$$(awk -v t=$$t -v s=$$start -v e=$$(date +%s%N) 'BEGIN { printf "%-16s %7.1f s", t, (e - s) / 1e9 }'); \
		echo "ci: $$line"; \
		summary="$$summary  $$line\n"; \
		if [ $$rc -ne 0 ]; then \
			printf 'ci wall time per target (%s failed):\n%b' "$$t" "$$summary"; exit $$rc; \
		fi; \
	done; \
	printf 'ci wall time per target:\n%b' "$$summary"

# obs-lint gates the telemetry schema: every stage.* span the query pipeline
# emits must have a matching registered stage-latency histogram and must
# appear in the wide-event schema (obs.StageNames), so a renamed span can't
# silently fall out of /metrics or the wide events.
obs-lint:
	$(GO) test -count=1 -run '^TestObsLint' .

# lint gates formatting and static analysis: gofmt must report no files, and
# go vet must pass (with variable-shadow checking when the external shadow
# analyzer is installed — it is optional, CI images without it still get the
# full built-in vet suite). TestDeadSurface fails on any exported identifier
# of the root package or internal/ that no non-test file of this module or of
# benchmark/ uses, unless its allowlist names it with a reason; its fixture
# test checks the checker.
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) test -count=1 -run '^TestDeadSurface' .
	@if command -v shadow >/dev/null 2>&1; then \
		$(GO) vet -vettool=$$(command -v shadow) ./... ./cmd/... ./examples/...; \
	else \
		echo "shadow analyzer not installed; skipping shadow vet"; \
	fi

# ./... covers every package in the module; cmd/ and examples/ are listed
# explicitly so the gate still covers them if the root pattern is narrowed.
# The arm64 pass type-checks the test files too (make build compiles only
# the packages), so a test that names an amd64-only symbol outside an
# _amd64_test.go file fails here instead of on the first arm64 host.
#
# The GOAMD64=v3 arm reruns the row kernels' exactness tests with the
# compiler allowed to use FMA: the float64 ones, the float32 ones and the
# float32 GEMM, LSTM recurrence and transpose, whose Go twins hold
# multiply-add shapes (the GEMM's d += a·b, the cell's f·c + i·g) that a
# fusing compiler would contract, and the mixed decode's emission pin. Go
# 1.24 does not fuse x*y+z on amd64 even then, so math's tanh keeps the
# unfused polynomial that TanhRow's vector kernel transcribes and every Go
# twin rounds each operation; a toolchain that starts fusing would move
# those bits, and this arm fails instead of the fingerprint.
vet:
	$(GO) vet ./... ./cmd/... ./examples/...
	GOARCH=arm64 $(GO) vet ./...
	GOAMD64=v3 $(GO) test -run 'Row64|Row32|RowKernel|IdenticalTo|MatMulF32|LSTMRecur32|Transpose32|QuantEmissionsPinned' \
		./internal/mat/ ./internal/nn/ ./internal/tagger/

# build also cross-compiles for arm64, so the pure-Go twins (the !amd64
# files) of every assembly entry point in internal/mat keep building.
build:
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./...

# deps-check keeps the paper's evaluation out of the server binary: Table 2's
# crowd ground truth, its IR and SIM baselines and the experiment
# regenerators are linked by the benchmark tool, never by cmd/saccs-server,
# which reaches the trained model through internal/core alone. The second
# check keeps the synthetic world generator (internal/yelp) out of the code
# every request runs through — the facade and the HTTP tier; the server's
# main links it only for its -seed-demo flag. The third keeps test support
# (internal/obs/promtext, the Prometheus text validator) out of the facade,
# every command and every example: only tests import it. The fourth keeps the
# §7 extensions (search automaton, trust, personalization) out of the facade
# and the server: only examples/personalization links them.
deps-check:
	@bad=$$($(GO) list -deps ./cmd/saccs-server | grep -E '^saccs/internal/(experiments|crowd|ir|simbaseline)$$'); \
	if [ -n "$$bad" ]; then \
		echo "cmd/saccs-server links paper-evaluation packages:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$($(GO) list -deps . ./internal/server | grep -E '^saccs/internal/yelp$$'); \
	if [ -n "$$bad" ]; then \
		echo "the facade or the HTTP tier links the world generator:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$($(GO) list -deps . ./cmd/... ./examples/... | grep -E '^saccs/internal/obs/promtext$$'); \
	if [ -n "$$bad" ]; then \
		echo "a shipped package links test support:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$($(GO) list -deps . ./internal/server ./cmd/saccs-server | grep -E '^saccs/internal/(automaton|trust|profile)$$'); \
	if [ -n "$$bad" ]; then \
		echo "the facade or the server links a §7 extension:"; echo "$$bad"; exit 1; \
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

# bench-once runs every benchmark body exactly once, timing nothing: no
# other gate reaches them, so a fixture or a b.Fatal that no longer holds
# (BenchmarkFigure5Attention's readback, the Table 5 fixture in
# bench_test.go) would otherwise rot unseen. ~15 s on a warm build cache.
bench-once:
	$(GO) test -count=1 -run '^$$' -bench . -benchtime 1x ./...

# bench-smoke exercises the parallel query path end-to-end for a fraction of
# a second — enough to catch a deadlock or crash in the concurrent pipeline
# without slowing CI. Both passes run on one facade client (saccs.New, the
# served model and query path, extraction cache off). -qps-guard fails the
# run if the client queried by 4 goroutines drops below the same client at
# 1 goroutine (the parallel-scaling regression this repo once shipped: more
# goroutines, fewer queries). Every decode is solo on its caller's
# goroutine, so the ratio is processor scaling: ~2x at 2 Ps, ~1x at
# GOMAXPROCS=1, where the guard is a coin flip and bench-smoke is not
# meaningful.
# -quant-guard fails the run if the mixed-precision cold decode is not at
# least 1.5x the float64 decode (quantGuardMin in cmd/saccs-bench): it
# protects the reduced-precision kernels' reason to exist. Ten consecutive
# runs on a 2-vCPU AVX-512 host (go1.24.0) read 2.35-3.38, all passing, once
# the mixed decode's float32 tier went vector end to end. Each side is one
# timed window, so a run near the floor is read by rerunning, not as a
# regression; ROADMAP 16(d) replaces the window with interleaved pairs.
bench-smoke:
	$(GO) run ./cmd/saccs-bench -only parallel,quant -parallel 4 -parallel-dur 300ms -qps-guard -quant-guard

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
# open-loop load generator: fixed arrival rates on a ladder calibrated
# against the same server, latency quantiles measured from scheduled arrival
# time (no coordinated omission), and the max sustained rate. It prints the
# ladder to stdout.
bench-serve:
	$(GO) run ./cmd/saccs-bench -only serve -parallel-dur 2s

# check runs the correctness harness under the race detector: the
# internal/check differential oracles (serial vs parallel build, persisted vs
# rebuilt index, prepared vs string-walking similarity, serial vs concurrent
# query) and property/metamorphic checks (threshold monotonicity, tag strengthening,
# rank permutation invariance, slot word boundaries), plus every committed
# fuzz seed corpus replayed as plain regression tests. It also runs the
# trained-weight fingerprint (TestTrainTaggerFingerprint: the served recipe
# trained on the vector kernels and again on the pure-Go ones must hash to
# the recorded value), which -short skips and the race detector would make
# take minutes, and, first, the paper tables' bit pins (pins, below).
check: pins
	$(GO) test -race -count=1 ./internal/check/...
	$(GO) test -count=1 -run '^TestTrainTaggerFingerprint$$' ./internal/core/
	$(GO) test -race -count=1 -run '^Fuzz' ./internal/tokenize/ ./internal/search/ \
		./internal/parse/ ./internal/tagger/ ./internal/index/ ./internal/ingest/ \
		./internal/mat/ ./internal/sim/

# pins runs the bit pins of the paper tables at fast scale (every row of
# Tables 2, 4 and 5 at %.17g, and Table 5's shape), which -short skips: they
# are what holds a "no bit moved" claim on training, FGSM, OpineDB, the
# pairing classifier and the attention readback end to end. No -race: the
# detector would stretch their ~40 s to many minutes. check runs them first.
pins:
	$(GO) test -count=1 -run '^(TestTable2FastPinned|TestTable4FastPinned|TestTable5FastPinned|TestTable5ShapeFast)$$' ./internal/experiments/

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
	$(GO) test -fuzz '^FuzzRow64Kernels$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/mat/
	$(GO) test -fuzz '^FuzzRow32Kernels$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/mat/
	$(GO) test -fuzz '^FuzzPreparedPhrase$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/sim/

# cover measures total -short coverage and fails if it regresses below
# COVER_BASELINE. It is also the only pass in ci without -race: the pins
# that skip or loosen under race.Enabled (TestWarmQueryAllocsRegression,
# TestPredictAllocsRegression and the other allocation pins) hold exactly
# only here, so folding cover into the race run (ROADMAP 16(c)) must keep a
# non-race run of them.
cover:
	$(GO) test -short -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{sub(/%/, "", $$NF); print $$NF}'); \
	echo "total coverage: $$total% (baseline $(COVER_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN { exit (t+0 < b+0) ? 1 : 0 }' \
		|| { echo "coverage regressed below $(COVER_BASELINE)%"; exit 1; }

# loc prints non-test .go line counts (wc -l, nothing filtered): the five
# inference-engine packages and the module outside benchmark/ (ROADMAP item
# 2; 5558 and 24472 at a0bb2ef), and internal/obs (2394 at 5e139b5). Test
# support — non-test files that only tests import — is counted on its own
# line and left out of the module's production count (which read 22706,
# test support included, before the Prometheus validator moved out of
# internal/obs).
TEST_SUPPORT = internal/obs/promtext

loc:
	@echo "mat+nn+bert+tagger+core: $$(ls internal/mat/*.go internal/nn/*.go internal/bert/*.go \
		internal/tagger/*.go internal/core/*.go | grep -v _test.go | xargs cat | wc -l)"
	@echo "internal/obs: $$(ls internal/obs/*.go | grep -v _test.go | xargs cat | wc -l)"
	@echo "test support ($(TEST_SUPPORT)): $$(ls $(addsuffix /*.go,$(TEST_SUPPORT)) | grep -v _test.go | xargs cat | wc -l)"
	@echo "module outside benchmark/, production: $$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' \
		! -path './.bench_build/*' $(foreach d,$(TEST_SUPPORT),! -path './$(d)/*') | xargs cat | wc -l)"
