#!/usr/bin/env bash
# Production coverage gate: run what production runs, with coverage
# instrumentation over every package of the module, and fail when a non-test
# function under internal/ is never entered and coverageAllowList
# (coverage_gate_test.go) does not list it with its reason, or when an entry
# there is stale or gives no reason.
#
# What counts as a production run:
#   - the benchmark (bench/) on each of its four workloads, in both trace
#     modes, at --seconds 3 (4–9 s a run on a 2-vCPU host);
#   - the CLI smoke rows, the train → publish → serve e2e round trip and the
#     epoch trainers' -sched refusal, whose binaries the root test
#     binary builds with -cover (GOFLAGS). The test binary itself is not
#     instrumented: what a test calls directly does not count.
#
#   scripts/coverage.sh [dir]
#
# dir keeps the raw counters (dir/cov) and the merged text profile
# (dir/profile.txt); without it they go to a temporary directory that is
# removed on exit. About 1.5 minutes with a warm build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

if [ $# -gt 0 ]; then
	work=$(mkdir -p "$1" && cd "$1" && pwd)
else
	work=$(mktemp -d)
	trap 'rm -rf "$work"' EXIT
fi
rm -rf "$work/cov"
mkdir -p "$work/cov"

go build -cover -coverpkg=lumos/... -o "$work/lumos-bench" ./bench
go test -c -o "$work/root.test" .

# The benchmark writes its traces under bench/out of its working directory:
# run it in the work directory, so the checkout stays clean.
for workload in epoch-gcn-secure epoch-gat-linkpred sim-async-churn gossip-ba-swap; do
	for trace in 0 1; do
		(cd "$work" && GOCOVERDIR="$work/cov" ./lumos-bench \
			--workload "$workload" --seed 7 --seconds 3 --trace "$trace" >/dev/null)
	done
done

if ! out=$(GOFLAGS='-cover -coverpkg=lumos/...' GOCOVERDIR="$work/cov" "$work/root.test" -test.v \
	-test.run '^(TestEntryPointsBuildAndRun|TestServePublishServeQueryE2E|TestEpochTrainersRefuseSched)$' 2>&1); then
	echo "coverage: the production rows failed:" >&2
	echo "$out" >&2
	exit 1
fi

go tool covdata textfmt -i "$work/cov" -o "$work/profile.txt"
if ! out=$(LUMOS_COVERAGE_PROFILE="$work/profile.txt" go test -count=1 -v -run '^TestProductionCoverage$' . 2>&1) ||
	! grep -q -- '--- PASS: TestProductionCoverage (' <<<"$out"; then
	echo "coverage gate failed:" >&2
	echo "$out" >&2
	exit 1
fi
grep -E 'never entered' <<<"$out" || true
