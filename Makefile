# Tier-1+ verification for the live communication path.
#
# `make ci` is the check gate for changes touching the hot path: it runs the
# tier-1 verify (build + full test suite), vet, the race detector over the
# packages that exercise the transport ownership contract, a smoke run of
# the live/codec/TCP/shm microbenchmarks (1 iteration — catches benchmark bit-rot,
# not performance), the metrics-overhead gate (alloc-free increments plus
# the <2% instrumentation bound on the live all-reduce), and a vet + build +
# test of the perfbench module against the current library API.

GO ?= go

.PHONY: ci build test vet race chaos bench-smoke metrics-overhead perfbench-build bench bench-tcp bench-seg bench-shm bench-priority

ci: vet build test race chaos bench-smoke metrics-overhead perfbench-build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# ./transport/... is recursive: it covers the shared-memory rings
# (transport/shmnet), the two-tier composition and the cross-transport
# conformance suite alongside the mem and TCP transports.
race:
	$(GO) test -race ./collective/... ./transport/... ./engine/... ./mpi/... ./metrics/... ./internal/sendpool/... ./internal/gradsync/... ./internal/packing/... ./baseline/... ./fault/... .

# Seeded chaos soak (DESIGN.md §8): the pipelined ring all-reduce under ~20
# randomized fault scenarios (crashes, partitions, drops, truncation, delay)
# across the mem and TCP transports, under the race detector, with
# hang-freedom, pool-balance and goroutine-balance enforced per seed.
# Reproduce one failure with: go test -race -run 'TestChaosSoakMem/seed=K' ./collective/
# The engine package contributes the prioritized-profile kill scenario (a rank
# dies with units queued and in flight on every stream; survivors classify the
# error and leak nothing) and the 2-rank slow-link dispatch hang regressions.
chaos:
	$(GO) test -race -count=1 -short -run 'TestChaosSoak|TestAbort|TestCrossRankDispatchNoHang|TestReproYieldGateDeadlock' ./collective/ ./transport/chaos/ ./engine/

bench-smoke:
	$(GO) test -run XXX -bench 'Live|Codec|TCP|Shm|Transport' -benchtime 1x .

# Observability cost gates (DESIGN.md §7, §8): the metric increment path must
# be allocation-free, full-stack instrumentation must cost <2% on the live
# ring all-reduce, and idle-only TCP liveness heartbeats must cost <5% on the
# busy path (min-of-trials A/B in both cases).
metrics-overhead:
	$(GO) test -run TestIncrementBenchmarksAllocFree -count=1 ./metrics/
	AIACC_OVERHEAD_GATE=1 $(GO) test -run 'TestMetricsOverheadGate|TestHeartbeatOverheadGate' -count=1 .

# perfbench/ is a Go module of its own (it drives the library through its
# public API), so the root `go build ./...` never compiles it. Vet, build and
# test it here so a library change that breaks the benchmark or its workloads
# fails CI. The binary is discarded; perfbench/run.sh builds its own.
perfbench-build:
	cd perfbench && $(GO) vet ./... && $(GO) build -o /dev/null ./... && $(GO) test ./...

# Full live-path benchmark numbers (recorded in BENCH_pr1.json and, for the
# TCP data plane, BENCH_pr2.json).
bench:
	$(GO) test -run XXX -bench 'Live|Codec|TCP' -benchtime 200x .

# Just the real-socket data plane (the BENCH_pr2.json numbers).
bench-tcp:
	$(GO) test -run XXX -bench TCP -benchtime 200x .

# Pipelined segmented ring same-binary A/B over real TCP with the fp16 codec:
# seg=off (one segment per chunk, the no-pipelining baseline) vs seg=128K.
bench-seg:
	$(GO) test -run XXX -bench 'BenchmarkRingAllReduceTCP/4ranks/.*elems/fp16' -benchtime 30x -count 3 .

# Shared-memory vs TCP-loopback same-binary A/B (the BENCH_pr6.json numbers):
# raw one-way throughput and round-trip latency per transport, the 4-rank ring
# all-reduce over both data planes, and the aiacc-bench table variants of the
# same experiments (shm-loopback, hierarchy two-level vs flat ring).
bench-shm:
	$(GO) test -run XXX -bench 'BenchmarkTransportLoopback|BenchmarkTransportPingPong|BenchmarkRingAllReduceShm|BenchmarkRingAllReduceTCP/4ranks/[0-9]+elems$$' -benchtime 100x -count 3 .
	$(GO) run ./cmd/aiacc-bench -experiment shm-loopback -metrics=false
	$(GO) run ./cmd/aiacc-bench -experiment hierarchy -metrics=false

# Live streams sweep under reverse-topological packing (the BENCH_pr12.json
# numbers): Streams 1/2/4/8 over the skewed (CTR-like) and uniform (BERT-like)
# profiles on a rate-modelled slow link, next-forward stall as the headline
# metric, min of 3 runs per cell.
bench-priority:
	$(GO) run ./cmd/aiacc-bench -experiment priority
