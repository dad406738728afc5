# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short bench bench-json bench-json-quick bench-shards bench-load bench-recovery bench-path load-smoke fuzz-smoke profile-smoke continuation-smoke path-smoke chaos-crash chaos-recover shard-matrix ci figures figures-quick examples race-examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# What .github/workflows/ci.yml runs (the workflow adds fuzz-smoke).
# perfbench is a nested module, so its gate and pinned-digest tests need
# their own step: the root `go test ./...` does not reach them.
ci: vet build test shard-matrix
	$(GO) test -race -short ./internal/...
	$(GO) test -race -short . ./examples/workloads
	$(GO) run ./cmd/benchjson -quick
	$(GO) run ./cmd/benchjson -shards -quick
	$(GO) test -race -run 'TestLoadShardEquivalence' ./examples/workloads
	$(GO) run ./cmd/benchjson -load -quick
	$(GO) run ./cmd/benchjson -recovery -quick
	$(MAKE) path-smoke
	$(GO) run ./cmd/benchjson -path -quick
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the committed coalescing benchmark artifact.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_coalesce.json

bench-json-quick:
	$(GO) run ./cmd/benchjson -quick

# Regenerate the committed shard-sweep artifact (wall-clock per shard
# count, bit-identity asserted in every row).
bench-shards:
	$(GO) run ./cmd/benchjson -shards -out BENCH_shards.json

# Regenerate the committed service-traffic SLO artifact (KV service
# under open-loop load: offered load × size × locks-vs-shipping ×
# coalescing, with a sharded bit-identity re-check per row).
bench-load:
	$(GO) run ./cmd/benchjson -load -out BENCH_load.json

# Regenerate the committed crash-recovery artifact (KV service with a
# mid-traffic primary crash: heartbeat × size × replication on/off,
# zero-loss and crash-to-commit headlines, sharded bit-identity per row).
bench-recovery:
	$(GO) run ./cmd/benchjson -recovery -out BENCH_recovery.json

# Regenerate the committed path-tracing overhead artifact (each KV
# scenario tracing-off vs tracing-on: wall-clock overhead columns with
# the SLO digest pinned identical and exactness asserted per row).
bench-path:
	$(GO) run ./cmd/benchjson -path -out BENCH_path.json

# Service-traffic gate: the load generator/histogram property tests, the
# service workloads (goldens + SLO sanity + crash rows), the SLO-level
# shard-equivalence matrix under the race detector, and a quick sweep.
load-smoke:
	$(GO) test ./internal/load
	$(GO) test -run 'TestService|TestKVService|TestGoldenReports/kv-|TestGoldenReports/agg-' ./examples/workloads ./internal/chaos
	$(GO) test -race -run 'TestLoadShardEquivalence' ./examples/workloads
	$(GO) run ./cmd/benchjson -load -quick

# Traced quickstart driven through the whole observability pipeline:
# lifecycle tracing + metrics on, profile JSON written, then parsed and
# rendered by the cafprof CLI.
profile-smoke:
	$(GO) run ./examples/quickstart -profile /tmp/caf2go_profile_smoke.json
	$(GO) run ./cmd/cafprof -metrics /tmp/caf2go_profile_smoke.json
	rm -f /tmp/caf2go_profile_smoke.json

# Continuation-API smoke: run the continuation-driven stencil and
# pipeline against their blocking equivalents, assert identical results
# with a strictly lower main-strand blocked-time share, and push the
# continuation stencil's traced profile through the cafprof CLI.
continuation-smoke:
	$(GO) run ./cmd/contsmoke -profile /tmp/caf2go_continuation_smoke.json
	$(GO) run ./cmd/cafprof /tmp/caf2go_continuation_smoke.json
	rm -f /tmp/caf2go_continuation_smoke.json

# Critical-path tracing smoke: run the lock-protocol KV service with
# path tracing on, assert the exact latency decomposition (bucket sums
# equal measured latency for every request, digest unperturbed, tail
# dominated by lock wait), then render the paths and tail views from
# the written profile through the cafprof CLI.
path-smoke:
	$(GO) run ./cmd/pathsmoke -profile /tmp/caf2go_path_smoke.json
	$(GO) run ./cmd/cafprof paths /tmp/caf2go_path_smoke.json
	$(GO) run ./cmd/cafprof tail /tmp/caf2go_path_smoke.json
	rm -f /tmp/caf2go_path_smoke.json

# Short fuzz pass over the conflict-range intersection kernel.
fuzz-smoke:
	$(GO) test -fuzz=FuzzRangesIntersect -fuzztime=30s -run '^$$' ./internal/race

# Crash-resilience sweep: every chaos workload with an image hard-crashed
# mid-run, detector on (typed errors, no deadlocks) and detector off
# (legacy deadlock pinned), plus the resilient-finish property tests.
chaos-crash:
	$(GO) test -run 'Crash|DetectorOn|Resilient' -v ./internal/chaos ./internal/core .

# Recovery gate: the replication manager/table unit tests, the
# replicated-coarray mirror/failover tests, the KV recovery chaos suite
# (zero loss, bounded tail, back-to-back and mid-recovery crashes,
# bit-identity), and the replicated shard-equivalence row under -race.
chaos-recover:
	$(GO) test ./internal/repl
	$(GO) test -run 'TestReplCoarray|TestReplication' -v .
	$(GO) test -run 'TestKVRecover' -v ./internal/chaos
	$(GO) test -race -run 'TestLoadShardEquivalence/kv-replicated' ./examples/workloads

# Shard-determinism gate, all under the race detector: the admission
# oracle and worker-protocol tests, the sharded chaos / resilient-finish
# bit-identity sweeps, and the golden shard-equivalence matrix (every
# workload at shards 1/2/4/8 × GOMAXPROCS 1/8 against the committed
# 1-shard goldens).
shard-matrix:
	$(GO) test -race -run 'Shard|Sharded' ./internal/sim ./internal/core ./internal/chaos
	$(GO) test -race -run 'TestGoldenShardEquivalence' ./examples/workloads

figures:
	$(GO) run ./cmd/figures -out results

figures-quick:
	$(GO) run ./cmd/figures -quick

# Re-run the example workloads under the happens-before race detector
# and assert the expected conflict counts (nonzero only for the
# intentionally racy variants). The same tests run as part of `make
# test`, so CI covers them without this target.
race-examples:
	$(GO) test -run 'TestRaceExamples' -v .

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/stencil
	$(GO) run ./examples/worksteal
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/termination
	$(GO) run ./examples/transpose

.PHONY: outputs
outputs:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
