# fedsched — reproduction of Baruah, DATE 2015.
# Stdlib-only Go; all targets are thin wrappers over the go tool.

GO ?= go

.PHONY: all check build vet test test-short test-race cover bench bench-test fuzz fuzz-smoke oracle-race par-race shard-race partition-race policy-race typed-race serve-smoke obs-smoke shard-bench policy-bench perf-gate perf-baseline experiments experiments-quick examples clean

all: build vet test

# What CI runs (.github/workflows/ci.yml): vet + build + race-enabled tests,
# the differential oracle under the race detector, a fuzzing smoke pass, the
# shard/durability suite under the race detector, the admission-policy layer
# under the race detector, the typed processor model under the race detector,
# an end-to-end boot/admit/drain check of the fedschedd daemon, a smoke test
# of its observability surface (/metrics, pprof, ?trace=1, flight recorder,
# audit log), the admission benchmark's own module (bench-test), and the
# continuous perf-regression gate over the pinned benchmark set.
check: vet build test-race oracle-race par-race shard-race partition-race policy-race typed-race fuzz-smoke serve-smoke obs-smoke bench-test perf-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One benchmark per evaluation experiment (E1–E21) plus package micro-benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# The admission benchmark (bench/, a Go module of its own that imports the
# daemon's internal packages): vet and test it, so an API change in the
# root module cannot silently break `bash bench/run.sh`.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Short fuzzing sessions over the decoders and the QPA cross-check.
fuzz:
	$(GO) test -fuzz=FuzzUnmarshalJSON -fuzztime=30s ./internal/dag/
	$(GO) test -fuzz=FuzzBuilder -fuzztime=30s ./internal/dag/
	$(GO) test -fuzz=FuzzExactVsNaive -fuzztime=30s ./internal/dbf/
	$(GO) test -fuzz=FuzzDBFStar -fuzztime=30s ./internal/dbf/
	$(GO) test -fuzz=FuzzVerifyAllocation -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzTaskHash -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzPartitionState -fuzztime=30s ./internal/partition/

# CI smoke pass over the property fuzz targets (30 s each).
fuzz-smoke:
	$(GO) test -fuzz=FuzzDBFStar -fuzztime=30s ./internal/dbf/
	$(GO) test -fuzz=FuzzVerifyAllocation -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzPartitionState -fuzztime=30s ./internal/partition/

# The fast-vs-reference differential oracle under the race detector.
oracle-race:
	$(GO) test -race -run 'TestOracle' ./internal/sim/

# The parallel Phase-1 engine's determinism pins under the race detector:
# core's seed × worker-count differential matrix and the service-level
# batch/incremental equivalence tests.
par-race:
	$(GO) test -race -run 'TestSchedulePar|TestAdmitBatchParMatchesSequential|TestIncrementalMatchesBatch' ./internal/core/ ./internal/service/

# The sharded-router and WAL/snapshot durability suite under the race
# detector: pre-refactor golden differentials through the router, kill/restart
# recovery byte-identity, torn-write WAL sweeps, multi-shard isolation.
shard-race:
	$(GO) test -race -run 'TestRouter|TestGoldenDifferential|TestShard|TestMultiShard|TestFleet|TestHashRing|TestRecovery' ./internal/service/
	$(GO) test -race ./internal/store/

# The incremental Phase-2 partition state's byte-identity harness under the
# race detector: the seed × heuristic × admission-test differential matrix,
# the Admit∘Remove inverse property, the core AdmitLow/RemoveLow/VerifyDelta
# differentials, and the service twin-server walks (warm vs FullRepartition).
partition-race:
	$(GO) test -race -run 'TestPartitionState|TestState' ./internal/partition/
	$(GO) test -race -run 'TestAdmitRemoveLow|TestRemoveLow|TestVerifyDelta' ./internal/core/
	$(GO) test -race -run 'TestWarmPath|TestServiceStateRandomWalk|TestEncodeFast' ./internal/service/

# The pluggable admission-policy layer under the race detector: the
# semi-federated and reservation property suites (service-lemma sizing,
# acceptance dominance over strict FEDCONS, verifier rejection of mutated
# budgets and servers), the 20-seed CLI differential pinning -policy=fedcons
# byte-identical to the default invocation, the daemon's policy-pinned
# durability (banner, snapshot header, recovery refusal), and the E22
# dominance certification at quick scale.
policy-race:
	$(GO) test -race ./internal/semifed/ ./internal/reservation/
	$(GO) test -race -run 'TestPolicy' ./cmd/fedsched/ ./cmd/fedschedd/ ./cmd/analyze/
	$(GO) test -race -run 'TestConfigValidatePolicy|TestE22' ./internal/exp/

# The typed (heterogeneous) processor model under the race detector: the
# typed list-scheduling engine properties, the typed MINPROCS metamorphic
# suite (edge-order invariance, type-label swap mirror, untyped degeneracy),
# the typed hash sensitivity pins, the typed differential oracle (fast vs
# reference engine with per-slice type audits), the 20-seed CLI differential
# pinning single-type -policy=typed byte-identical to strict -policy=fedcons,
# and the E23 type-mix certification at quick scale.
typed-race:
	$(GO) test -race -run 'TestRunTyped|TestTypedProcBase|TestValidateTyped' ./internal/listsched/
	$(GO) test -race -run 'TestMinprocsTyped|TestTaskHashTypeSensitivity' ./internal/core/
	$(GO) test -race -run 'TestOracleTyped' ./internal/sim/
	$(GO) test -race -run 'TestTyped' ./cmd/fedsched/ ./cmd/fedschedd/ ./cmd/analyze/
	$(GO) test -race -run 'TestE23' ./internal/exp/

# End-to-end daemon smoke test: build fedschedd, boot it on a random port,
# admit Example 1 (accepted) and a 3-wide high-density task (3-processor
# Phase-1 grant), then SIGTERM and assert a clean drain. Followed by the
# crash-recovery smoke: admit with -wal-dir, kill -9, restart on the same
# directory, assert a byte-identical allocation and a prewarmed Phase-1 cache.
serve-smoke:
	$(GO) run ./scripts/servesmoke

# Shared-nothing scaling sweep: boot fedschedd at -shards 1, 4 and 8, drive
# each with the built-in cross-cluster load generator, and record
# admissions/sec + latency quantiles into results/timing_shards.json.
shard-bench:
	$(GO) run ./scripts/shardbench

# Policy benchmark: time cold and warm admissions under each -policy
# (fedcons, semi, reservation) on a fixed workload and record the medians
# into results/timing_policy.json.
policy-bench:
	$(GO) run ./scripts/policybench

# Observability smoke test: boot fedschedd with -v/-audit/-debug-addr, scrape
# the Prometheus exposition, admit with ?trace=1 asserting the inline decision
# trace, pull a pprof profile from the debug listener, and check the audit log.
obs-smoke:
	$(GO) run ./scripts/obssmoke

# Continuous perf-regression gate: run the pinned benchmark set (medians over
# -count 5), compare against results/bench_baseline.json, fail on a >25%
# slowdown, and append the run to results/bench_history.jsonl. On a host
# whose fingerprint differs from the baseline's the gate is advisory.
perf-gate:
	$(GO) run ./scripts/perfgate

# Re-record the committed perf baseline from this host's medians.
perf-baseline:
	$(GO) run ./scripts/perfgate -update

# Regenerate the EXPERIMENTS.md measurement body (full scale; several minutes).
experiments:
	$(GO) run ./cmd/experiments -plot -csv results -o report.md

experiments-quick:
	$(GO) run ./cmd/experiments -quick -plot

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/avionics
	$(GO) run ./examples/anomaly
	$(GO) run ./examples/speedupbound
	$(GO) run ./examples/pipeline

clean:
	rm -f report.md test_output.txt bench_output.txt
