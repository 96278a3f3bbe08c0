# Standard developer entry points. `make check` is the full gate:
# formatting, static analysis, a clean build, and the test suite under
# the race detector.

GO ?= go

.PHONY: all build test fmt vet race check fuzz bench benchsmoke simbench layerbench loadsmoke chaossmoke dessmoke treesmoke recoordsmoke verify-invariants cover telemetry-alloc fastpath-alloc sim-alloc golden buildsmoke

all: check

build:
	$(GO) build ./...

# Every Go file outside perfbench/ must be gofmt-clean.
fmt:
	@test -z "$$(gofmt -l internal cmd examples *.go)" || { gofmt -l internal cmd examples *.go; echo "FAIL: files above need gofmt"; exit 1; }

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of the engine comparison bench under the race detector:
# catches data races in the parallel evaluation path that unit tests
# with small inputs might miss.
benchsmoke:
	$(GO) test -race -run=^$$ -bench=BenchmarkSweepSerialVsParallel -benchtime=1x .

# One iteration of each simulator layer bench (the 4096-leaf tree solve,
# DES exact and fast mode at the perfbench simulate sizes, DES exact
# under an oversubscribed queue, a recoord run on a memoized slate and
# one at a fresh budget that simulates its slate), so the benchmarks
# cannot rot.
simbench:
	$(GO) test -run=^$$ -bench='^Benchmark(Solve4096|RunExact256|RunExactOversubscribed|RunFast10k|Run|RunCold)$$' -benchtime=1x ./internal/powertree ./internal/des ./internal/recoord

# One iteration of the serving-stack layer benches: the ten-pair
# decision-table build from a cold engine, warm /v1/coord computations
# and the CPU and GPU simulator runs beneath both, so the benchmarks
# cannot rot.
layerbench:
	$(GO) test -run=^$$ -bench='^BenchmarkBuildPairs$$' -benchtime=1x ./internal/decisiontable
	$(GO) test -run=^$$ -bench='^BenchmarkComputeCoordWarm$$' -benchtime=1x ./internal/allocsvc
	$(GO) test -run=^$$ -bench='^BenchmarkSimRun(CPU|GPU)$$' -benchtime=1x .

# Concurrency smoke for the allocation service under the race
# detector: many clients over all five API routes, in JSON and binary,
# against a small worker pool, asserting consistent responses, no
# shared answer between requests whose naive keys collide, and
# balanced counters.
loadsmoke:
	$(GO) test -race -run TestLoadSmoke -count=1 -v ./internal/allocsvc

# Seeded chaos suite for the resilient sharded client under the race
# detector: kill/restart schedules, 429 storms, dropped connections,
# and stalls against a 3-shard topology. TestChaosSingleShardDeathZeroLoss
# enforces the >= 99% availability-during-single-shard-death gate, and
# TestChaosSeededGoldenTrace pins breaker transitions to a golden trace.
chaossmoke:
	$(GO) test -race -run TestChaos -count=1 -v ./internal/allocclient

# Cluster queue engine gate under the race detector: exact mode against
# the frozen testdata goldens (byte for byte), every golden case through
# fast mode (bit-identical Result), replay determinism (same seed, same
# trace hash), the pinned trace hashes of representative runs, one pin
# per run checked in both modes, and the cross-mode property table
# (bit-identical Results, pool conservation, fast replay), the
# serial-vs-shared-engine contract of cluster.Schedule rounds (memoized
# placements, same-named workload variants), the demand-response tests
# (budget schedules replayed as shock edges, a steady schedule equal to
# no schedule field for field), then a seeded DES run
# through the pbc CLI in both modes, each with a replay check, failing
# unless both print the same trace hash, and the pbc faults cluster
# demo, which runs its queues through exact mode.
DESSMOKE_RUN = $(GO) run -race ./cmd/pbc des -nodes 64 -horizon 600 -seed 7 \
	-arrival-spec "rate=0.2,burst=2,units=2e12" \
	-fault-spec "shock.mtbs=120,shock.frac=0.25,shock.len=20" -replay-check

dessmoke:
	$(GO) test -race -run 'TestGoldenEquivalence|TestGoldenCasesFastMode|TestReplayDeterminism|TestTraceHashPinned|TestCrossModeProperties|TestOneJobEqualsSim' -count=1 ./internal/des
	$(GO) test -race -run 'TestScheduleSerialParallelContract|TestDemandResponse' -count=1 ./internal/cluster
	@set -e; \
	fast=$$($(DESSMOKE_RUN)); echo "$$fast"; \
	exact=$$($(DESSMOKE_RUN) -mode exact); echo "$$exact"; \
	a=$$(echo "$$fast" | awk '/^trace hash/ { print $$3 }'); \
	b=$$(echo "$$exact" | awk '/^trace hash/ { print $$3 }'); \
	if [ -z "$$a" ] || [ "$$a" != "$$b" ]; then echo "FAIL: pbc des trace hash differs across modes: fast '$$a', exact '$$b'"; exit 1; fi; \
	echo "cross-mode trace hash: OK ($$a in both modes)"
	$(GO) run ./cmd/pbc faults -log 0 >/dev/null

# Hierarchical budget-tree gate under the race detector: conservation,
# monotonicity, shed minimality, the metamorphic suite (sibling
# permutation, rack splitting, demand scaling), the serial-vs-
# parallel golden byte identity of tree solves, the serial-vs-shared-
# engine contract on the exact-mix tree shapes (memoized leaf curves),
# and leaf curves classed by value, not by name.
treesmoke:
	$(GO) test -race -run 'TestSolve|TestSolveSerialParallelContract|TestCurveSetClassesByValue|TestMetamorphic|TestGolden|TestWaterFilling|TestRackCap|TestGreedy|TestResultString' -count=1 ./internal/powertree

# Online re-coordination gate under the race detector: the controller's
# never-worse-than-static guarantee across phased ML workloads on the
# H100-class platforms, byte-identical determinism, the typed sub-floor
# rejection, serial-vs-parallel equality of the slate evaluation, and
# the recoord shard-death chaos case; then one CLI run.
recoordsmoke:
	$(GO) test -race -run 'TestOnlineNeverWorseThanStatic|TestDeterministicRepeat|TestBudgetBelowCapFloorTypedRejection|TestRunSerialParallelContract' -count=1 ./internal/recoord
	$(GO) test -race -run TestChaosRecoordShardDeathFailover -count=1 ./internal/allocclient
	$(GO) run ./cmd/pbc recoord -platform h100 -workload llmbatch -budget 300 >/dev/null

# Cross-implementation invariant harness: the full catalog sweep under
# the race detector, then the pbc verify CLI gate.
verify-invariants:
	$(GO) test -race -run TestInvariant ./internal/invariant
	$(GO) run ./cmd/pbc verify

# The disabled-telemetry hot path must stay allocation-free: run the
# benchmark once and fail if it reports any allocs/op.
telemetry-alloc:
	$(GO) test -run=^$$ -bench=BenchmarkTelemetryDisabled -benchtime=100000x -benchmem ./internal/telemetry | \
		awk '/BenchmarkTelemetryDisabled/ { if ($$(NF-1)+0 != 0) { print "FAIL: disabled telemetry allocates:", $$0; exit 1 } found=1 } \
		END { if (!found) { print "FAIL: BenchmarkTelemetryDisabled did not run"; exit 1 } }'

# The binary serving hot path (frame decode -> decision-table lookup ->
# frame encode) must stay allocation-free on table hits: run the
# benchmark once and fail if it reports any allocs/op.
fastpath-alloc:
	$(GO) test -run=^$$ -bench=BenchmarkBinaryFastPath -benchtime=100000x -benchmem ./internal/decisiontable | \
		awk '/BenchmarkBinaryFastPath/ { if ($$(NF-1)+0 != 0) { print "FAIL: binary fast path allocates:", $$0; exit 1 } found=1 } \
		END { if (!found) { print "FAIL: BenchmarkBinaryFastPath did not run"; exit 1 } }'

# The simulator allocates only the per-phase results it returns: run
# the CPU and GPU simulator benchmarks and fail if either reports more
# than 1 alloc/op.
sim-alloc:
	$(GO) test -run=^$$ -bench='^BenchmarkSimRun(CPU|GPU)$$' -benchtime=20000x -benchmem . | \
		awk '/^BenchmarkSimRun(CPU|GPU)/ { if ($$(NF-1)+0 > 1) { print "FAIL: simulator allocates:", $$0; bad=1 } found++ } \
		END { if (found != 2) { print "FAIL: BenchmarkSimRunCPU/GPU did not both run"; exit 1 } if (bad) exit 1 }'

# Decision tables build their segment intervals on every engine worker:
# a build fanned over several workers must match a one-worker build
# boundary for boundary and answer for answer, and concurrent misses on
# one unbuilt pair must share its one build, repeatedly and under the
# race detector.
buildsmoke:
	$(GO) test -race -count=5 -run 'TestParallelBuildDeterministic|TestConcurrentMissesBuildOnce' ./internal/decisiontable

# The committed paper artifacts (results/*) and generated docs
# (WORKLOADS.md, PLATFORMS.md) must equal what the code produces, byte
# for byte. After an intended change, regenerate them with
# `go test -run TestArtifactsGolden -update .` and review the diff.
golden:
	$(GO) test -run TestArtifactsGolden -count=1 .

check: fmt vet build race benchsmoke simbench layerbench loadsmoke chaossmoke dessmoke treesmoke recoordsmoke verify-invariants telemetry-alloc fastpath-alloc sim-alloc golden buildsmoke

# Coverage gates: internal/telemetry must keep at least 70% statement
# coverage, and internal/powertree (the budget-tree solver) and
# internal/recoord (the online controller) at least 80% each.
COVER_FLOOR ?= 70.0
TREE_COVER_FLOOR ?= 80.0
RECOORD_COVER_FLOOR ?= 80.0

cover:
	$(GO) test -coverprofile=cover.out ./internal/telemetry/...
	$(GO) tool cover -func=cover.out | tail -1
	@$(GO) tool cover -func=cover.out | awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { sub(/%/, "", $$3); if ($$3+0 < floor) { print "FAIL: coverage", $$3"% below floor", floor"%"; exit 1 } \
		else { print "coverage OK:", $$3"% >= "floor"%" } }'
	$(GO) test -coverprofile=cover_tree.out ./internal/powertree/...
	$(GO) tool cover -func=cover_tree.out | tail -1
	@$(GO) tool cover -func=cover_tree.out | awk -v floor=$(TREE_COVER_FLOOR) \
		'/^total:/ { sub(/%/, "", $$3); if ($$3+0 < floor) { print "FAIL: powertree coverage", $$3"% below floor", floor"%"; exit 1 } \
		else { print "powertree coverage OK:", $$3"% >= "floor"%" } }'
	$(GO) test -coverprofile=cover_recoord.out ./internal/recoord/...
	$(GO) tool cover -func=cover_recoord.out | tail -1
	@$(GO) tool cover -func=cover_recoord.out | awk -v floor=$(RECOORD_COVER_FLOOR) \
		'/^total:/ { sub(/%/, "", $$3); if ($$3+0 < floor) { print "FAIL: recoord coverage", $$3"% below floor", floor"%"; exit 1 } \
		else { print "recoord coverage OK:", $$3"% >= "floor"%" } }'

# Short fuzz passes over the input parsers (fault specs, arrival specs,
# tree specs, phase specs, power units), the tree solver against its
# sort-based reference, DES exact mode against fast mode, the
# simulator's fixed-point loops against their solve-every-pass twin, the
# warm-started RAPL and GPU-governor searches against a cold search, the
# Prometheus exposition encoder, and the binary wire codec (both a
# round-trip property fuzzer and a malformed-frame decoder fuzzer).
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzParseSpec -fuzztime=10s ./internal/faults
	$(GO) test -run=^$$ -fuzz=FuzzParsePhaseSpec -fuzztime=10s ./internal/workload
	$(GO) test -run=^$$ -fuzz=FuzzParseArrivalSpec -fuzztime=10s ./internal/des
	$(GO) test -run=^$$ -fuzz=FuzzModesAgree -fuzztime=10s ./internal/des
	$(GO) test -run=^$$ -fuzz=FuzzFixedPointReuse -fuzztime=10s ./internal/sim
	$(GO) test -run=^$$ -fuzz=FuzzActuatorHint -fuzztime=10s ./internal/rapl
	$(GO) test -run=^$$ -fuzz=FuzzActuatorHint -fuzztime=10s ./internal/nvgov
	$(GO) test -run=^$$ -fuzz=FuzzTreeSpec -fuzztime=10s ./internal/powertree
	$(GO) test -run=^$$ -fuzz=FuzzSolveMatchesSortedGreedy -fuzztime=10s ./internal/powertree
	$(GO) test -run=^$$ -fuzz=FuzzParsePower -fuzztime=10s ./internal/units
	$(GO) test -run=^$$ -fuzz=FuzzPromText -fuzztime=10s ./internal/telemetry
	$(GO) test -run=^$$ -fuzz=FuzzWireRoundTrip -fuzztime=10s ./internal/wire
	$(GO) test -run=^$$ -fuzz=FuzzWireMalformed -fuzztime=10s ./internal/wire

# Every layer bench once through the go tool; the end-to-end benchmark
# is perfbench (see perfbench/README.md).
bench:
	$(GO) test -bench=. -benchmem ./...
