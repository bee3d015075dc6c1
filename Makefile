GO ?= go

.PHONY: build test race fuzz-smoke bench-smoke perf perf-smoke perf-compare perf-pairs chaos chaos-resize spill workload loc

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Vet plus race-detector runs over the packages with the most concurrency:
# the distributed cluster, the query engine and its operators, the loader
# (parse workers, one writer shared by every slice's goroutine), the shared
# block cache, the codecs (whose inflater and deflater pools every slice
# goroutine shares), and the telemetry registry — plus the root-level
# morsel worker suites (twin battery, cancel/fault storm, stats parity).
# The commit-protocol tests (readers against VACUUM/TRUNCATE, block
# identities) repeat twenty times: their subject is an interleaving. So is
# the write path's (slices sorting and sealing at once, a DISTSTYLE ALL
# write's chunks shared by every node): its differential test repeats five.
# The statement lifecycle's tests repeat twenty times too: CANCEL against
# finish, the wire's serialize report against the query log's ring turning.
race:
	$(GO) vet ./...
	$(GO) test -race ./internal/cluster ./internal/compress ./internal/core ./internal/exec ./internal/load ./internal/storage ./internal/telemetry ./internal/wire
	$(GO) test -race -count=20 -run 'TestVacuum|TestCommitProtocol' ./internal/core
	$(GO) test -race -count=20 -run 'TestStageClock|TestCancel|TestStatementTimeout' ./internal/core
	$(GO) test -race -count=20 -run 'TestStageClockWire|TestWireDisconnect' ./internal/wire
	$(GO) test -race -count=5 -run 'TestVectorWriterMatchesRowOracle' ./internal/core
	SPILL_SEED=$(SPILL_SEED) $(GO) test -race -run TestParallel .

# Each native fuzz target for FUZZTIME on top of its committed seed corpus
# (testdata/fuzz beside each): arbitrary bytes into the block decoders,
# fuzzer-built vectors through every encoding and back, arbitrary bytes into
# the spill frame decoder, bytes read as an expression plus a batch that
# the compiled and interpreted evaluators must agree on, arbitrary bytes
# into the SQL front end (parse, render, re-parse, plan), and arbitrary
# bytes into COPY's delimited and JSON readers, which must read what the
# row-at-a-time readers they replaced read.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/compress
	$(GO) test -run '^$$' -fuzz '^FuzzRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/compress
	$(GO) test -run '^$$' -fuzz '^FuzzSpillFrame$$' -fuzztime $(FUZZTIME) ./internal/exec
	$(GO) test -run '^$$' -fuzz '^FuzzEvalCompiledVsInterpreted$$' -fuzztime $(FUZZTIME) ./internal/exec
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/sql
	$(GO) test -run '^$$' -fuzz '^FuzzCopyCSV$$' -fuzztime $(FUZZTIME) ./internal/load
	$(GO) test -run '^$$' -fuzz '^FuzzCopyJSON$$' -fuzztime $(FUZZTIME) ./internal/load

# Short randomized-fault run under the race detector: query battery with
# injected read errors and latency spikes must match a fault-free twin, a
# fully dead cluster must fail cleanly. The seed is pinned for CI and
# echoed by the suite on failure; replay with CHAOS_SEED=<seed> make chaos.
CHAOS_SEED ?= 20260805
chaos:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -run 'TestChaosFaultMasking|TestChaosAllReplicas|TestChaosTimeout' -v .

# Elasticity chaos battery under the race detector: the fault battery runs
# DURING a live online resize with concurrent writers (reads bit-identical
# to a fault-free twin across the endpoint swap, zero lost writes), the
# resize is killed at every phase and must roll back with the source
# authoritative, and concurrency-scaling burst routing stays bit-identical
# under injected route faults. Replay with CHAOS_SEED=<seed> make chaos-resize.
chaos-resize:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -run 'TestChaosResize|TestChaosBurst' -v .

# One iteration of every Go micro-benchmark: a CI smoke check that the
# benchmark bodies stay runnable. Numbers come from `make perf`, not here.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# The measurement spine (benchmark/README.md): every workload, one untraced
# and one traced run each, written to PERF_OUT. perf-compare judges that
# file against the committed baseline (PERF_BASE) with per-workload bounds
# and exits non-zero on a regression.
PERF_OUT ?= benchmark/out/run.json
PERF_BASE ?= benchmark/baseline.json
perf:
	$(GO) run ./benchmark -workload all -out $(PERF_OUT)

perf-compare:
	$(GO) run ./benchmark -compare $(PERF_BASE) $(PERF_OUT)

# How a performance claim is measured (ROADMAP "Standing rules"): N alternating
# parent/change pairs of one workload, untraced, each side's ./benchmark built
# once from its own source; prints every run, then median [quartiles] and pairs
# won per end-to-end metric. `make perf-pairs PARENT=HEAD~1 WORKLOAD=scan_agg`.
PARENT ?= HEAD
WORKLOAD ?= scan_agg
N ?= 10
SEED ?= 20260925
perf-pairs:
	bash scripts/perf-pairs.sh $(PARENT) $(WORKLOAD) $(N) $(SEED)

# The end-to-end tier, short: all four workloads at 1/50 size over the
# wire, replies verified, every declared metric emitted once and finite.
# Exits non-zero on any failure. No compare against the baseline — a
# shared CI runner is too noisy for the bounds.
perf-smoke:
	$(GO) run ./benchmark -smoke

# Memory-governance suite under the race detector: the spill twin battery
# (bit-identical results at unlimited/256KiB/64KiB grants), the mid-spill
# cancellation/timeout leak checks, and the operator-level property tests.
# The seed is pinned for CI; replay with SPILL_SEED=<seed> make spill.
SPILL_SEED ?= 20260805
spill:
	SPILL_SEED=$(SPILL_SEED) $(GO) test -race -run 'TestSpill|TestWorkMem' -v .
	SPILL_SEED=$(SPILL_SEED) $(GO) test -race -run 'TestSpill|TestStvQueryMemory' ./internal/core
	SPILL_SEED=$(SPILL_SEED) $(GO) test -race -run 'TestProp|TestAggAccounting' ./internal/exec

# Multi-tenant QoS battery under the race detector: the pinned-seed
# workload replay against named queues (fast-lane p99 bounded under ETL
# saturation, zero cross-queue leakage, stv_wlm_* books balanced), the
# single-queue ablation twin, the named-queue WLM unit suite, and the
# synthesizer determinism/shape tests.
workload:
	$(GO) test -race -run 'TestWorkloadQoS' -v .
	$(GO) test -race -run 'TestWLM' ./internal/core
	$(GO) test -race ./internal/workload

# The code-size figure CHANGES.md reports per PR: non-blank, non-comment Go
# lines outside benchmark/ and _test.go files, per package and in total.
# `make loc LOC_BASE=<dir>` adds the same count of another checkout (the
# parent commit, say) and the difference.
LOC_BASE ?=
loc:
	@sh scripts/loc.sh . $(LOC_BASE)
