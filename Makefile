GO ?= go

.PHONY: build test race stress fuzz-smoke bench-smoke perf perf-smoke perf-compare perf-pairs chaos chaos-resize spill workload loc

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Vet plus race-detector runs over the packages with the most concurrency:
# the distributed cluster, the catalog, the query engine and its operators,
# the loader (parse workers, one writer shared by every slice's goroutine),
# the shared block cache, the codecs (whose inflater and deflater pools every
# slice goroutine shares), and the telemetry registry — plus the root-level
# morsel worker suites (twin battery, cancel/fault storm, stats parity).
# The commit-protocol tests (readers against VACUUM/TRUNCATE, block
# identities) repeat twenty times: their subject is an interleaving. So is
# the write path's (slices sorting and sealing at once, a DISTSTYLE ALL
# write's chunks shared by every node): its differential test repeats five.
# The statement lifecycle's tests repeat twenty times too: CANCEL against
# finish, the wire's serialize report against the query log's ring turning.
# So do the caches': a hit rewrites its entry's rank under the lock the
# eviction loop re-files entries under. So does one Filter and one Evaluator
# shared by four goroutines: every temporary lives in a per-call arena. The
# wire's reply buffers repeat ten: one pool under connections on goroutines of
# their own, replies small and over the pooled-size bound, errors mixed. The
# live statement views repeat ten: stv_inflight, stv_exec_workers and
# stv_query_memory read a running query's trackers from another goroutine.
# The catalog's statistics snapshots repeat twenty: readers bind plans over a
# shared snapshot while a writer publishes new ones, and a write to a
# published one is a race. So does the result cache's admission test: the
# ghost of seen keys is atomics every session reads and writes unlocked. The
# join's pass-through probe repeats ten: four probers share one built join,
# and an output whose rows each match once holds its input's own vectors.
# The write fold's bounds repeat twenty: every slice decodes the runs its
# write folds while the others write, and a failed or cancelled folding
# write must leave those runs live. So does the rollback of a write's
# statistics: a cancelled write's delta must never reach the catalog its
# readers plan from. The key table's dense layout repeats ten: four
# goroutines Find on one dense table, whose lookups share its slots with
# no lock. So does ANALYZE's block-scan differential: every slice seals its
# run and the run's statistics concurrently, merging the statistics of runs
# other writes installed, which must never be written again.
# The DISTINCT spill test repeats ten: four workers spill as a cancel lands.
race:
	$(GO) vet ./...
	$(GO) test -race ./internal/catalog ./internal/cluster ./internal/compress ./internal/core ./internal/exec ./internal/load ./internal/storage ./internal/telemetry ./internal/wire
	$(GO) test -race -count=20 -run 'TestVacuum|TestCommitProtocol' ./internal/core
	$(GO) test -race -count=20 -run 'TestStageClock|TestCancel|TestStatementTimeout' ./internal/core
	$(GO) test -race -count=20 -run 'TestStageClockWire|TestWireDisconnect' ./internal/wire
	$(GO) test -race -count=20 -run 'TestBlockCacheConcurrent|TestCache' ./internal/storage
	$(GO) test -race -count=20 -run 'TestSharedEvaluatorConcurrent' ./internal/exec
	$(GO) test -race -count=10 -run 'TestReplyPoolConcurrent' ./internal/wire
	$(GO) test -race -count=5 -run 'TestVectorWriterMatchesRowOracle' ./internal/core
	$(GO) test -race -count=10 -run 'TestLiveStatementViews|TestStvQueryMemoryVisibility' ./internal/core
	$(GO) test -race -count=20 -run 'TestStatsConcurrentReadersAndWriters' ./internal/catalog
	$(GO) test -race -count=20 -run TestResultCacheAdmitsOnSecondSight ./internal/core
	$(GO) test -race -count=10 -run TestProbePassesLeftThrough ./internal/exec
	$(GO) test -race -count=20 -run TestInsertFoldBounds ./internal/core
	$(GO) test -race -count=20 -run TestWriteRollbackLeavesStats ./internal/core
	$(GO) test -race -count=10 -run TestKeyTableDenseLayout ./internal/exec
	$(GO) test -race -count=10 -run TestAnalyzeMatchesBlockScan ./internal/core
	$(GO) test -race -count=10 -run TestSpillDistinctSpills ./internal/core
	SPILL_SEED=$(SPILL_SEED) $(GO) test -race -run TestParallel .

# The suites whose subject is an interleaving, ten times over at one, two and
# four Ps: the statement lifecycle (stage clock, CANCEL against finish,
# statement timeouts, cancelled writes), the chaos batteries, online resize
# and burst routing, the parallel cancel storm and the wire's disconnect
# mid-query. Outside tier-1 (it takes minutes); a failure it finds is fixed in
# the program or the test, never skipped.
stress:
	$(GO) test -count=10 -cpu 1,2,4 -run 'TestStageClock|TestCancel|TestStatementTimeout|TestContextCancel|TestConcurrentCancellationStorm' ./internal/core
	$(GO) test -count=10 -cpu 1,2,4 -run 'TestStageClockWire|TestWireDisconnect' ./internal/wire
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -count=10 -cpu 1,2,4 -run 'TestChaos|TestParallelCancelStorm' .

# Each native fuzz target for FUZZTIME on top of its committed seed corpus
# (testdata/fuzz beside each): arbitrary bytes into the block decoders,
# fuzzer-built vectors through every encoding and back, DEFLATE streams
# (compress/flate's at every level, flipped, cut short, or arbitrary bytes)
# into the LZO reader, which must read what compress/flate reads, arbitrary
# bytes into the spill frame decoder, bytes read as an expression plus a batch that
# the compiled and interpreted evaluators must agree on, LIKE patterns and
# strings that the linear matcher and the compiled one (a string compare when
# the pattern is a literal between %s) must match as the recursive matcher
# does, arbitrary bytes
# into the SQL front end (parse, render, re-parse, plan), and arbitrary
# bytes into COPY's delimited and JSON readers, which must read what the
# row-at-a-time readers they replaced read, results built from arbitrary
# bytes into the wire's reply encoder, which must write what encoding/json
# writes, arbitrary bytes into the client's reply decoder, which must fail
# where encoding/json fails and read what it reads otherwise, arbitrary bytes
# into the wire's request reader, which must frame and decode the lines a
# plain split of the bytes finds, and arbitrary bytes
# into the two settings parsers: -wlm-queues specs, which must never split
# the memory pool outside [0, pool] per slot, and byte sizes, which must land
# in [0, 2^62] or be "default".
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/compress
	$(GO) test -run '^$$' -fuzz '^FuzzRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/compress
	$(GO) test -run '^$$' -fuzz '^FuzzInflate$$' -fuzztime $(FUZZTIME) ./internal/compress
	$(GO) test -run '^$$' -fuzz '^FuzzSpillFrame$$' -fuzztime $(FUZZTIME) ./internal/exec
	$(GO) test -run '^$$' -fuzz '^FuzzEvalCompiledVsInterpreted$$' -fuzztime $(FUZZTIME) ./internal/exec
	$(GO) test -run '^$$' -fuzz '^FuzzLike$$' -fuzztime $(FUZZTIME) ./internal/exec
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/sql
	$(GO) test -run '^$$' -fuzz '^FuzzCopyCSV$$' -fuzztime $(FUZZTIME) ./internal/load
	$(GO) test -run '^$$' -fuzz '^FuzzCopyJSON$$' -fuzztime $(FUZZTIME) ./internal/load
	$(GO) test -run '^$$' -fuzz '^FuzzReplyEncoding$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeReply$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzReadRequest$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzParseQueueSpecs$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzParseByteSize$$' -fuzztime $(FUZZTIME) ./internal/sql

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
# cancellation/timeout leak checks, the operator-level property tests,
# TestSpillOutputGivesItsFileBack (a spilled join's scratch file goes at the
# end of its output, or at ReleaseMem) and TestGraceJoinWritesOnlyItsPartitions
# (a spilled join writes its partitions and no output frames).
# The seed is pinned for CI; replay with SPILL_SEED=<seed> make spill.
SPILL_SEED ?= 20260805
spill:
	SPILL_SEED=$(SPILL_SEED) $(GO) test -race -run 'TestSpill|TestWorkMem' -v .
	SPILL_SEED=$(SPILL_SEED) $(GO) test -race -run 'TestSpill|TestStvQueryMemory' ./internal/core
	SPILL_SEED=$(SPILL_SEED) $(GO) test -race -run 'TestProp|TestAggAccounting|TestSpillOutput|TestGraceJoinWritesOnlyItsPartitions' ./internal/exec

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
# parent commit, say) and the difference. Fails when the total is over
# ROADMAP's ratchet (RATCHET in scripts/loc.sh).
LOC_BASE ?=
loc:
	@sh scripts/loc.sh . $(LOC_BASE)
