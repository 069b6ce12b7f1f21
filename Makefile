# Developer entry points. `make ci` is the gate PRs must keep green.

.PHONY: build test race bench bench-selfcheck ci

build:
	go build ./...

test:
	go test ./...

# Race hygiene for the device-parallel training engine: the worker pool,
# shard views, and gradient reduction all run under the race detector.
race:
	go test -race -short ./internal/... ./...

# Epoch, round + kernel benchmarks: BenchmarkEpochParallel reports its speedup
# over the serial baseline as a custom metric; BenchmarkRoundShardsN is one
# partial-participation round at one device per shard (what the simulator
# steps); BenchmarkGossipRounds is a 10-round decentralized simulation (local
# steps, replica swaps and one fused mix per device, link queues);
# BenchmarkFirstLayer is the first layer's product and weight gradient over a
# workload forest, dense Forest.X against the Forest.XView the engine reads;
# -benchmem tracks the tape engine's B/op and allocs/op (the
# allocation-regression budget lives in internal/core/alloc_test.go and runs
# under `make ci`). BenchmarkSecureCompare is one 32-bit secure comparison
# and BenchmarkMCMCBalanceSecure the secure tree constructor (greedy + 50
# MCMC iterations). The stream is piped through scripts/benchjson, which
# echoes it and records the results with run metadata in BENCH_epoch.json.
bench:
	go test -run xxx -benchtime 20x -benchmem \
		-bench 'BenchmarkEpoch|BenchmarkForestEpoch|BenchmarkRoundShardsN|BenchmarkGossipRounds|BenchmarkFirstLayer|BenchmarkMatMul|BenchmarkCSRAggregate|BenchmarkSecureCompare|BenchmarkMCMCBalanceSecure' . \
		| go run ./scripts/benchjson -out BENCH_epoch.json

# The end-to-end benchmark's self-check (bench/README.md): every workload
# twice, failing if an end-to-end metric moves by more than its bound.
# Minutes long, so not part of `ci`.
bench-selfcheck:
	go run ./bench -selfcheck

ci:
	./scripts/ci.sh
