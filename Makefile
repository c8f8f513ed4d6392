# fedsched — reproduction of Baruah, DATE 2015.
# Stdlib-only Go; all targets are thin wrappers over the go tool.

GO ?= go

.PHONY: all check fmt-check build vet test test-short test-race cover bench bench-test fuzz fuzz-smoke oracle-race par-race shard-race partition-race policy-race typed-race policy-bench perf-gate perf-baseline experiments experiments-quick examples clean

all: build vet test

# What CI runs (.github/workflows/ci.yml): a gofmt check, vet + build +
# race-enabled tests, the differential oracle under the race detector, a
# fuzzing smoke pass, the
# shard/durability suite under the race detector, the admission-policy layer
# under the race detector, the typed processor model under the race detector,
# the admission benchmark's own module (bench-test), and the continuous
# perf-regression gate over the pinned benchmark set. The end-to-end daemon
# tests (cmd/fedschedd/e2e_test.go: boot, admit, observability surface,
# kill -9 recovery, drain) run inside test-race.
check: fmt-check vet build test-race oracle-race par-race shard-race partition-race policy-race typed-race fuzz-smoke bench-test perf-gate

# Fails when any Go file in the tree is not gofmt-formatted.
fmt-check:
	test -z "$$(gofmt -l .)"

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
	$(GO) test -fuzz=FuzzDecodeFastPath -fuzztime=30s ./internal/task/
	$(GO) test -fuzz=FuzzWALRecord -fuzztime=30s ./internal/store/
	$(GO) test -fuzz=FuzzDecodeSnapshot -fuzztime=30s ./internal/store/
	$(GO) test -fuzz=FuzzRequestEnvelope -fuzztime=30s ./internal/service/

# CI smoke pass over the property fuzz targets (30 s each), including the
# differential checks of the single-pass codecs against encoding/json: the
# task, the WAL record, the snapshot, and the admit and batch request bodies.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDBFStar -fuzztime=30s ./internal/dbf/
	$(GO) test -fuzz=FuzzVerifyAllocation -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzPartitionState -fuzztime=30s ./internal/partition/
	$(GO) test -fuzz=FuzzDecodeFastPath -fuzztime=30s ./internal/task/
	$(GO) test -fuzz=FuzzWALRecord -fuzztime=30s ./internal/store/
	$(GO) test -fuzz=FuzzDecodeSnapshot -fuzztime=30s ./internal/store/
	$(GO) test -fuzz=FuzzRequestEnvelope -fuzztime=30s ./internal/service/

# The fast-vs-reference differential oracle under the race detector.
oracle-race:
	$(GO) test -race -run 'TestOracle' ./internal/sim/

# The parallel Phase-1 engine's determinism pins under the race detector:
# core's seed × worker-count differential matrix and the service-level
# batch/incremental equivalence tests, cache-miss decision traces included.
par-race:
	$(GO) test -race -run 'TestSchedulePar|TestAdmitBatchParMatchesSequential|TestIncrementalMatchesBatch|TestMissTraceMatchesBatch' ./internal/core/ ./internal/service/

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
	$(GO) test -race -run 'TestDaemonRecovery/semi' ./cmd/fedschedd/
	$(GO) test -race -run 'TestE22' ./internal/exp/

# The typed (heterogeneous) processor model under the race detector: the
# typed list-scheduling engine properties, the typed MINPROCS metamorphic
# suite (edge-order invariance, type-label swap mirror, untyped degeneracy),
# the typed hash sensitivity pins, the typed differential oracle (fast vs
# reference engine with per-slice type audits), the 20-seed CLI differential
# pinning single-type -policy=typed byte-identical to strict -policy=fedcons,
# the E23 type-mix certification at quick scale, the core typed warm-path
# differential (per-type LowState banks vs the typed batch analysis), and the
# typed twin-server walks (warm path vs full repartition, byte for byte).
typed-race:
	$(GO) test -race -run 'TestRunTyped|TestTypedProcBase|TestValidateTyped' ./internal/listsched/
	$(GO) test -race -run 'TestMinprocsTyped|TestTaskHashTypeSensitivity|TestAdmitRemoveLowMatchesScheduleTyped' ./internal/core/
	$(GO) test -race -run 'TestWarmPathByteIdenticalToFullRepartition|TestServiceStateRandomWalk|TestWarmPathActuallyTaken' ./internal/service/
	$(GO) test -race -run 'TestOracleTyped' ./internal/sim/
	$(GO) test -race -run 'TestTyped' ./cmd/fedsched/ ./cmd/fedschedd/ ./cmd/analyze/
	$(GO) test -race -run 'TestDaemonRecovery/typed' ./cmd/fedschedd/
	$(GO) test -race -run 'TestE23' ./internal/exp/

# Policy benchmark: time cold and warm admissions under each -policy
# (fedcons, semi, reservation, typed) on a fixed workload. Load testing of
# the daemon itself is bench/ (`bash bench/run.sh`, see bench/README.md).
policy-bench:
	$(GO) test -run '^$$' -bench '^BenchmarkSchedulePolicy$$' -benchmem ./internal/service/

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
