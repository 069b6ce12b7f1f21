#!/usr/bin/env bash
# CI gate: vet, build, full test suite, then the race-detector pass over the
# training engine and everything that feeds it. Short mode keeps the race
# pass (which slows execution ~10x) at a few minutes on a laptop.
#
# The full (non-short) test pass includes the allocation-regression guard
# (internal/core/alloc_test.go): steady-state tape-engine epochs must stay
# under a fixed allocation budget. It is re-run by name below (gate), like
# every other guard a subsystem depends on.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...
go test ./...

# gate <race|plain> <pkg> <TestName>...: re-run the named tests (subtests as
# Top/sub) and require a "--- PASS" line for every one of them, so a renamed
# or accidentally-skipped guard fails CI loudly instead of matching nothing.
# GATE_COUNT=<n> repeats the run (-count), for tests that hunt interleavings.
gate() {
	local mode=$1 pkg=$2
	shift 2
	local flags=(-count="${GATE_COUNT:-1}" -v)
	if [ "$mode" = race ]; then
		flags+=(-race)
	fi
	# -run matches "/"-separated levels one pattern element each: element k
	# is the alternation of every name's k-th level.
	local pattern="" level name alts out levels
	for level in 0 1 2; do
		alts=""
		for name in "$@"; do
			IFS=/ read -ra levels <<<"$name"
			if [ -n "${levels[$level]:-}" ]; then
				alts="${alts:+$alts|}${levels[$level]}"
			fi
		done
		if [ -n "$alts" ]; then
			pattern="${pattern:+$pattern/}^($alts)\$"
		fi
	done
	if ! out=$(go test "${flags[@]}" -run "$pattern" "$pkg" 2>&1); then
		echo "gate $pkg failed:" >&2
		echo "$out" >&2
		exit 1
	fi
	for name in "$@"; do
		if ! grep -qF -- "--- PASS: $name (" <<<"$out"; then
			echo "gate $name ($pkg) did not pass:" >&2
			echo "$out" >&2
			exit 1
		fi
	done
}

# The portable build: every other GOARCH runs the Go loops alone, so the
# tree must keep compiling (and vetting) without the amd64 assembly.
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/tensor

# Go code the compiler may not fuse: these files write every product that
# is added as float64(x*y), which the spec forbids fusing, so an arm64 build
# must emit no fused multiply-add for them. (The rest of the tree still has
# implicit fusions on arm64; the list grows as files are converted.)
fma_files='internal/tensor/csr\.go|internal/tensor/constsparse\.go|internal/autodiff/attention\.go'
arm64_asm=$(GOARCH=arm64 go build -gcflags=-S ./internal/tensor ./internal/autodiff 2>&1)
if ! grep -qE "internal/tensor/csr\.go:[0-9]+\)" <<<"$arm64_asm"; then
	echo "the arm64 -S listing of internal/tensor is missing" >&2
	exit 1
fi
if grep -E "($fma_files):[0-9]+\)[[:space:]]+F(N)?M(ADD|SUB)[SD]\b" <<<"$arm64_asm"; then
	echo "fused multiply-add emitted for a file that must not fuse (write float64(x*y))" >&2
	exit 1
fi

# The float contract holds for hand-written code too: no assembly file
# under internal/ may fuse a multiply into an add.
if grep -rEn --include='*.s' 'VF(N)?M(ADD|SUB)' internal; then
	echo "fused multiply-add in assembly under internal/ (see the tensor package doc)" >&2
	exit 1
fi

# One seed rule: a stream's seed is derived in internal/rng by its role
# (rng.Derive, rng.Stream), so no non-test Go file elsewhere XORs a
# constant into a seed by hand.
if grep -rEn --include='*.go' --exclude='*_test.go' '[Ss]eed *\^' \
	internal cmd examples lumos.go | grep -v '^internal/rng/'; then
	echo "seed derived outside internal/rng; add a role there and call rng.Derive or rng.Stream" >&2
	exit 1
fi

# Allocation-regression guards (see the header).
gate plain ./internal/core \
	TestSupervisedEpochAllocBudget TestUnsupervisedEpochAllocBudget \
	TestUnsupervisedSessionAllocBudget TestDisabledTelemetryAllocBudget \
	TestRoundAllocBudgetShardsN

# Observability gates: the metrics hammer under the race detector
# (concurrent counters, gauges, histograms, and scrapers), the sim
# trace-determinism golden, and the replica /metrics scrape-and-parse suite.
# The /metrics smoke at CLI level rides inside TestServePublishServeQueryE2E
# below.
gate race ./internal/obs TestMetricsHammerConcurrent
gate plain ./internal/sim TestSimTraceDeterministic TestSimTraceChromeStructure
gate plain ./internal/serve TestMetricsEndpointScrape TestAccessLog
# The batching worker records a batch before it delivers the answers, so a
# scrape right after an answer always sees it (this flaked ~1 in 150 under
# the race detector while the record came after delivery).
GATE_COUNT=300 gate race ./internal/serve TestMetricsEndpointScrape

# Fleet-subsystem gates: the trace-driven lumos-sim smoke row (datagen-written
# trace file → fleet.LoadTrace → contended simulation) and the energystudy
# example (exits non-zero unless fleet energy grows monotonically with
# participation).
gate plain . \
	TestEntryPointsBuildAndRun/lumos-sim-trace \
	TestEntryPointsBuildAndRun/lumos-sim-telemetry \
	TestEntryPointsBuildAndRun/examples/energystudy

# Compute-path gates. There is one production path (register-blocked matmuls
# whose forward streams B in its natural layout, weighted-only fused CSR
# aggregation, recycled tapes); what it replaced survives as test oracles,
# and what no run entered (the packed-panel forward, the unweighted CSR arms)
# is gone. The kernel and fused-op equivalence property tests compare against
# those oracles bit for bit, and both CSR kernels refuse a nil or short
# coefficient slice, under the race detector; the golden loss traces
# (recorded on the scalar, unfused path) and the fresh-tape comparison pin
# the whole engine; and two systems training at once must not see each other.
gate race ./internal/tensor \
	TestKernelEquivalenceMatMul TestKernelEquivalenceMatMulNT \
	TestKernelEquivalenceMatMulTN TestCSRAggregateKernelMatchesScatter \
	TestCSRKernelsRequireCoef
gate race ./internal/autodiff \
	TestCSRAggregateMatchesUnfused TestCSRAggregateMulMatchesUnfused
gate plain ./internal/core \
	TestTrainersMatchPreSessionGoldens TestTapeReuseMatchesFreshTapes

# Leaf-row shard partials: the scatter-add combine against the dense
# pad-and-AddN combine it replaced (kept as the oracle in the test files) —
# the op's gradient check, bit-identity and −0 contract under the race
# detector, then the engine's forward and a partial-participation round
# sequence bit for bit, and the K_s-rows-per-shard memory shape.
gate race ./internal/autodiff \
	TestGradScatterAddN TestScatterAddNMatchesDenseOracle TestScatterAddNNegativeZero
gate plain ./internal/autodiff TestScatterAddNTapedSteadyState
gate plain ./internal/core TestSparsePartialsMatchDenseOracle TestRoundMemoryIsLeafSized
GATE_COUNT=10 gate race ./internal/core TestConcurrentSystemsTrainIndependently

# Loss-row combine and in-place replicas: a step combines only the pooled
# rows its loss reads (source-row lists in ScatterAddN — gradient check,
# bit-identity against the dense oracle, an empty list's zero gradient —
# under the race detector), bit for bit against the all-rows weighted-CE
# oracle across shard and worker counts; a gossip step reads exactly its
# vertex's live holders; replica store/load/mix allocate nothing and a
# one-device round stays in budget; and the gossip timeline golden recorded
# before either change.
gate race ./internal/autodiff \
	TestGradScatterAddN TestScatterAddNMatchesDenseOracle TestScatterAddNEmptyRowsGetZeroGradient
gate plain ./internal/core \
	TestLossRowsMatchDenseCombine TestGossipSoloStepReadsNeighbourPartials \
	TestReplicaRoundTripDoesNotAllocate TestSoloRoundAllocBudget
gate plain ./internal/sim TestGossipTimelineGolden

# Fused gossip mix and replica moves: the weighted-sum kernel against the
# one-pass-per-source loop it replaced (kept as the oracle in the test files)
# bit for bit over 1–10 sources, ±0 and subnormals, under the race detector;
# the optimizer-state mix against its own; SwapData moving arrays; then
# MixReplicas bitwise against the per-source oracle, SwapReplica as an exact
# two-way move that refuses a wrong-shape replica and trains exactly like
# LoadReplica. The gossip timeline golden above was recorded before either
# change.
gate race ./internal/tensor TestWeightedSumMatchesOracle TestSwapData
gate plain ./internal/nn TestMixOptStatesMatchesOracle
gate plain ./internal/core TestMixReplicas TestSwapReplica TestSwapReplicaTrainsLikeLoad

# AVX2 kernels: every tensor kernel-vs-oracle test above runs once on the Go
# loops and once on the vector path (where the CPU has AVX2); then the edge
# shapes (widths 1–17 and 64 around every vector boundary, depths 0, 1 and
# 63–65, row sub-ranges, ±0 and all-zero rows, nonzero and −0-holding
# destinations), axpy at every edge length, and the seed corpus of the
# both-paths fuzz target, under the race detector (the weighted sum's 1–10
# sources ride in TestWeightedSumMatchesOracle above); then a short fuzz
# pass. Balancer control traffic is charged in one call that leaves the
# counters n sends leave.
gate race ./internal/tensor \
	TestKernelsMatchOracleEdgeShapes TestAxpyMatchesScalar FuzzKernelsMatchPortable
# The segment kernels (one vector call per CSR destination row, per CSR
# source row through the by-source index, and per ConstSparse row) against
# scalar loops in their promised order, bit for bit on both paths: NaN, ±Inf
# and ±0 first terms, empty and one-edge segments, duplicate edges, a source
# with no edge, skipped val == c entries, spans shared under different
# constants, and widths 8 and 17 falling back to the Go loops; the
# by-source index's layout and the kernels' refusal of short inputs and
# out-of-range residual columns.
gate race ./internal/tensor \
	TestCSRSegmentKernelsMatchLoops TestCSRBySourceIndex \
	TestConstSparseKernelsMatchLoops TestConstSparseRefusesOutOfRangeColumn
go test -run '^$' -fuzz '^FuzzKernelsMatchPortable$' -fuzztime 10s ./internal/tensor
gate plain ./internal/fed TestSendNMatchesSends

# One statement of what a training round sends (core.roundMessages), which
# the network's counters and the simulator's transfer sizes both read: every
# traffic counter of a sync, an async and a partial-participation run equals
# the ledger golden recorded while the round was written out twice, and on
# the four benchmark workloads' systems the enumeration conserves bytes per
# kind, has a real sender and receiver for every message, and charges each
# device its closed form in the tree sizes.
gate plain ./internal/core TestTrafficLedgerGolden TestRoundMessagesConserve

# The one-bit LDP encoders evaluate e^ε once per vector: Encode, the
# per-vector recovery and MultiBit against the per-element methods and the
# per-element oracle, bit for bit under a fixed RNG.
gate plain ./internal/ldp TestVectorEncodersMatchPerElement

# NewSystem pays only for state it uses. An SMC party is a 16-byte PCG
# whose stream is a function of its seed alone; the balancer's Alg. 3 scan
# allocates nothing once warm, and a secure system's NewSystem stays in its
# byte budget. The fused LDP exchange (EncodeRecover, written straight into
# the forest rows) equals Encode + per-vector recovery bit for bit and
# leaves the RNG where Encode does; a recipient's leaf comes from its
# position in Retained; the forest's initial embeddings on the four
# benchmark workloads' systems match hashes recorded before the change. A
# tape's slab is sized to what it records, and NewSystem's allocated bytes at
# Shards=N stay in budget. The default shard count is the same on every
# host.
gate plain ./internal/smc TestPartyStreamDeterministic TestPartyIsSmall
gate plain ./internal/balance TestFindMaxDeviceDoesNotAllocate
gate plain ./internal/ldp TestEncodeRecoverMatchesEncodeThenRecover
gate plain ./internal/tree TestNeighborLeafAtBothLayouts
gate plain ./internal/autodiff TestTapeSlabSizedToRecording
gate plain ./internal/core \
	TestForestXGolden TestNewSystemAllocBudgetSecure \
	TestNewSystemAllocBudgetShardsN TestDefaultShardCountIsHostIndependent

# The first layer reads what LDP transmitted. The ConstSparse kernels
# against the dense ones (rows with no majority value, all-constant and
# empty rows, residuals in the first and last column, a one-column W, shared
# spans and shard slices; zero-constant rows bit for bit) and the MatMul over
# a Tape.ConstSparse leaf (its finite-difference row included), under the
# race detector; then, on the four benchmark workloads' systems, the view
# against Forest.X bit for bit and the engine against its dense-input oracle
# (forward to 1e-12, ten steps to 1e-9, same predictions and metric), and a
# forest whose row constants are all 0 multiplying as X does, bit for bit.
gate race ./internal/tensor \
	TestConstSparseMatMulMatchesDense TestConstSparseMatMulTNMatchesDense \
	TestConstSparseZeroConstantRowsBitIdentical TestConstSparseDenseAndSlice
gate race ./internal/autodiff TestConstSparseLeafMatMul TestGradMatMul TestGradTableCoversEveryOp
gate plain ./internal/core \
	TestForestXViewDenseEqualsX TestFirstLayerViewMatchesDense TestZeroConstantViewMultipliesAsX

# Graph inputs: a binary graph file's counts are bounded or backed by their
# bytes before they size anything (8- to 40-byte headers once allocated
# 0.8–1.6 GB), the CSV readers bound ids, dimensions and n·d, then the seed
# corpora of the four reader fuzz targets and a short fuzz pass of each.
gate plain ./internal/graph \
	TestReadHugeHeadersAllocateLittle TestReadRejectsMalformedFields TestCSVReadersRejectHugeIDs \
	FuzzRead FuzzReadEdgeList FuzzReadLabels FuzzReadSparseFeatures
for target in FuzzRead FuzzReadEdgeList FuzzReadLabels FuzzReadSparseFeatures; do
	go test -run '^$' -fuzz "^$target\$" -fuzztime 10s ./internal/graph
done

# One op for a GAT layer's attention: GATAttention against the per-head
# chain of library ops it replaced (kept as the oracle in the test files) —
# forward and every gradient bit for bit over one and four heads,
# concatenated and averaged, zeros of both signs, empty segments, repeated
# sources and duplicate edges, and again at the vector width 16 — its
# finite-difference rows and a warm tape recording it without allocating,
# under the race detector; then the epoch allocation budgets on the GAT
# backbone.
gate race ./internal/autodiff \
	TestGATAttentionMatchesPerHeadOracle TestGATAttentionAtVectorWidthMatchesOracle \
	TestGradGATAttention TestGATAttentionTapedSteadyState
gate plain ./internal/core \
	TestSupervisedEpochAllocBudget/GAT TestUnsupervisedEpochAllocBudget/GAT

# Fleet traces and Prometheus text: a trace with a non-finite multiplier or
# an integral column past int's range is refused, a sample value must be
# one whole float (optionally followed by an integer timestamp), then the
# seed corpora of the two reader fuzz targets and a short fuzz pass of
# each.
gate plain ./internal/fleet \
	TestProfileValidate TestReadTraceCSVRejectsMalformed FuzzReadTraceCSV
gate plain ./internal/obs \
	TestParsePrometheusRejectsGarbage TestParsePrometheusSampleForms FuzzParsePrometheus
go test -run '^$' -fuzz '^FuzzReadTraceCSV$' -fuzztime 10s ./internal/fleet
go test -run '^$' -fuzz '^FuzzParsePrometheus$' -fuzztime 10s ./internal/obs

# Shard tapes keep only what backward still reads. BiasReLUDropout against
# the AddRow → ReLU → Dropout chain it replaced in a GNN's hidden layers
# (kept as the oracle in the test files) — output, both parents' gradients
# and the stream's position bit for bit, in training and eval mode and at
# p = 0, with ±0 pre-activations and NaN/±Inf gradients on dropped and on
# ReLU-blocked entries — its finite-difference rows, and a backward handing
# each op node's gradient back to the tape once used (only the leaf and the
# root keep one, and a warm tape allocates nothing), under the race
# detector; then the bytes a fresh system's first step allocates on both
# backbones.
gate race ./internal/autodiff \
	TestBiasReLUDropoutMatchesChain TestGradBiasReLUDropout TestTapeReleasesSweptGradients \
	TestGradTableCoversEveryOp
gate plain ./internal/core TestFirstStepAllocBytes

# A round keeps only what backward reads: every finite-difference row
# recorded with Tape.Release before its backward (and again over op-node
# inputs, so an op that reads an input it does not declare panics) gives its
# loss and gradients bit for bit, and a GCN-shaped shard keeps exactly the
# buffers its backward reads and records, releases and sweeps without
# allocating, under the race detector; then on a one-device-per-shard
# system one GCN shard's tape after a training forward and the engine pool
# after a partial round. Phase 3 folds view gradients in shard order under a
# mutex as each shard's backward ends: the simulator's and the gossip
# timeline's determinism across worker counts and the async fresh-tape
# golden hunt its interleavings under the race detector, ten times each.
gate race ./internal/autodiff TestGradRowsUnderRelease TestReleaseKeepsWhatBackwardReads
gate plain ./internal/core TestRoundKeepsWhatBackwardReads
GATE_COUNT=10 gate race ./internal/sim TestSimDeterminismAcrossWorkers TestGossipDeterminismAcrossWorkers
GATE_COUNT=10 gate race ./internal/core TestTapeReuseMatchesFreshTapesAsync

# Async training has one implementation, the simulator's: a round's delays
# come only from its RoundPlan (nil = every gradient applies now, so an
# empty plan on an async system traces a sync Step), and Step refuses an
# async or gossip system instead of training it in lockstep.
gate plain ./internal/core TestNilDelaysApplyNow

# A shard holds buffers only while it computes: two tapes on one shared
# pool reuse each other's buffers and match private tapes bit for bit,
# recording in turn and on two goroutines at once (the pool is the only
# shared mutable state the shard tapes have), under the race detector; then,
# on a one-device-per-shard system, no shard tape holds a buffer after a
# partial round or an evaluation forward, and the pool keeps no more than
# private tapes would. Gossip pricing: a warm ServeBatch allocates nothing
# under FIFO or processor sharing, and the by-value event heap pops in
# (at, seq) order without allocating.
GATE_COUNT=10 gate race ./internal/autodiff TestPoolSharedAcrossTapes
gate plain ./internal/core TestShardsHoldNoBuffersBetweenRounds
gate plain ./internal/fleet TestServeBatchDoesNotAllocate
gate plain ./internal/sim TestEventQueueOrdering TestEventQueueMatchesSortedOrder

# A byte where a byte will do, and a finished session gives its training
# arena back: a tape's byte buffers come from its pool and go back on Reset,
# and Pool.Trim empties the pool without changing a later recording's bits,
# under the race detector; then the exact bytes a fresh GCN and a fresh GAT
# shard keep after Release (a dropout mask and a LeakyReLU branch are a byte
# per entry), one shard's view gradients checked out at a time on one
# worker, and FinishRounds leaving the pool empty with every evaluation
# surface bit for bit unchanged. A replica's watcher counts each bad
# publish (truncated, CRC-corrupt) as a load error and keeps serving.
gate race ./internal/autodiff TestPoolByteBuffersAndTrim TestReleaseKeepsWhatBackwardReads
gate plain ./internal/core \
	TestRoundKeepsWhatBackwardReads/GCN TestRoundKeepsWhatBackwardReads/GAT \
	TestFinishRoundsTrimsThePool
gate plain ./internal/serve TestServeWatchSurvivesBadPublishes

# Trace files: AnalyzeTrace sizes nothing by a track id (a 160-byte trace
# once allocated 329 MB), then the seed corpus of the trace reader's fuzz
# target (every decoded trace is analyzed too) and a short fuzz pass.
gate plain ./internal/report TestAnalyzeTraceAllocBoundedByInput FuzzReadChrome
go test -run '^$' -fuzz '^FuzzReadChrome$' -fuzztime 10s ./internal/report

# Run records: the seed corpus of FuzzLoadRunRecord (the three files of a
# short run's record, a torn final row, an empty rounds file; an error or
# a record, never a panic or an allocation past its bound), then a short
# fuzz pass.
gate plain ./internal/report FuzzLoadRunRecord
go test -run '^$' -fuzz '^FuzzLoadRunRecord$' -fuzztime 10s ./internal/report

# One seeding path: internal/rng equals math/rand's generator for edge and
# random seeds over two turns of its register (Uint64, Int63, and through
# rand.Rand Float64, Intn, NormFloat64 and Perm), after a reseed too, and
# no non-test file under internal/ or cmd/ calls math/rand.NewSource
# itself, under the race detector. Every stream is derived by its role in
# internal/rng: Derive reproduces each seed expression the sites used to
# write out, and no two streams of a run share a reduced math/rand seed
# (or, for SMC parties, a 64-bit seed) at full Facebook size but the known
# aliases, which must still hold. Then k-regular at k = n−1 builds the
# complete graph on every seed.
gate race ./internal/rng \
	TestSourceMatchesMathRand TestSourceReseed TestOneSeedingPath
gate plain ./internal/rng TestDeriveMatchesLegacySeeds TestStreamsDistinct
gate plain ./internal/topo TestKRegularCompleteDegree TestKRegularPinnedEdgeLists

# Production code is what production calls: every exported function and
# method under internal/ has a reference from a non-test file outside
# bench/, satisfies an interface, or is on the gate's allow-list with its
# reason (the module type-checked from source); the gate's own fixture
# (an unused function, a bench-only one, an interface method, stale and
# reasonless allow-list entries); and the link baselines drawing every
# non-edge of a graph with fewer non-edges than positives.
gate plain . TestProductionAPIIsCalled TestAPIGateFixture
gate plain ./internal/baselines TestSampleNonEdgesOnNearCompleteGraph

# Production code is what production runs: the benchmark's four workloads in
# both trace modes and the CLI smoke, e2e and gossip-refusal rows, built with
# coverage instrumentation, must enter every non-test function under
# internal/, or coverageAllowList (coverage_gate_test.go) names it with its
# reason; a stale or reasonless entry fails too (scripts/coverage.sh, about
# 1.5 minutes). First the gate's own fixture: a function only a test calls,
# one entered only through its closure, a file no run linked, exempt String
# methods and assembly declarations, stale and reasonless entries.
gate plain . TestCoverageGateFixture
scripts/coverage.sh

# Word-parallel secure comparison: Less against the bit-serial GMW evaluator
# it replaced (kept as the oracle in the test files) — result bit and
# per-call traffic, exhaustively at L=8 and on random and edge operands up to
# L=64 — and zero allocations per comparison, under the race detector; then
# the secure tree constructor's golden (assignment hash and exact SMC traffic,
# recorded with the bit-serial evaluator), secure ≡ plaintext on every
# Result field, and the comparator-width check.
gate race ./internal/smc TestLessMatchesBitSerialOracle TestLessDoesNotAllocate
gate plain ./internal/balance TestBalanceSecureGolden TestBalanceSecureMatchesPlaintext TestBalanceValidation

# Tree construction runs no comparison whose outcome the parties already
# hold: at every Alg. 3 call over 120 random graphs (Erdős–Rényi, power-law,
# stars; isolated vertices included; secure on those of ≤ 30 vertices) the
# memoized candidate set and best list equal the full rescan's (kept as the
# oracle in the test files) with no more comparisons; Alg. 1 asks the second
# degree comparison only where the first leaves it open; the secure golden's
# assignment hash and re-recorded traffic; and over 120 small random graphs
# Alg. 2 never reports below the brute-force optimum.
gate plain ./internal/balance \
	TestFindMaxDeviceMatchesFullRescan TestGreedyInitCoversAndTrims TestBalanceSecureGolden \
	TestTheorem2SmallGraphNearOptimal

# Gossip/topology gates: decentralized-timeline determinism across worker
# counts under the race detector, the gossip-complete ≈ star-sync
# equivalence check, the star-timeline golden re-check (gossip wiring must
# not perturb the frozen hex-float timelines), and the smoke rows for the
# gossip CLI surface and the topologystudy example (which exits non-zero
# unless every topology lands within 5% of the star final at equal rounds).
gate race ./internal/sim TestGossipDeterminismAcrossWorkers TestGossipCompleteMatchesStarSync
gate plain ./internal/sim TestPreFleetTimelineGolden

# One simulator round loop for star and gossip: the whole-run golden (every
# timeline and result field, the virtual-clock trace, the metrics scrape and
# the final model, recorded before the two loops were merged), the
# conservation laws over disciplines and seeds, best-round model selection
# under every discipline, and the refusal to run one Simulator twice.
gate plain ./internal/sim TestRunGolden TestTimelineInvariants TestSimModelSelection TestSimulatorReuseFails

# Epoch-driven model selection fails the way round-driven selection does: a
# validation metric that cannot be computed (no validation negatives, so
# ROC-AUC sees one class) is Step's error, not a silently skipped selection.
gate plain ./internal/core TestStepReturnsValidationError
gate plain . \
	TestEntryPointsBuildAndRun/lumos-sim-gossip \
	TestEntryPointsBuildAndRun/examples/topologystudy

# One backward: every graph records on a tape. The finite-difference table
# over every exported op and every unfused oracle op of the test files (each
# row recorded on a tape; the coverage test fails when an op has no row) and
# the panics of an op over no tape or over two tapes, under the race
# detector; then the comparison baselines' golden loss traces and metrics
# (recorded before they moved onto a tape), their per-epoch allocation
# budget, and the engine round whose combine has no term (its zero pooled
# value now on the serial tape).
gate race ./internal/autodiff \
	TestGradMatMul TestGradAddSub TestGradAddRow TestGradScaleAddN \
	TestGradActivations TestGradDropoutMask TestGradGatherSegmentSum \
	TestGradScaleRows TestGradMulRowsByCol TestGradScatterAddN \
	TestGradCSRAggregate TestGradSegmentSoftmax TestGradConcat TestGradPairDot \
	TestGradSoftmaxCrossEntropy TestGradLogisticLoss \
	TestGradSumMeanSquares TestGradCutGraph TestGradTableCoversEveryOp \
	TestOpOnNoTapePanics TestOpOverTwoTapesPanics
gate plain ./internal/baselines TestBaselineGoldens TestBaselineEpochAllocBudget
gate plain ./internal/core TestNoTermRound

# Serving-loop gates: the checkpoint/snapshot corruption tables (corrupt
# files must fail with bounded allocation; every truncated prefix and every
# flipped bit of a snapshot fails), the hot-swap race suite, and the
# CLI-level train → publish → serve → query → republish → SIGTERM round trip.
# The checkpoint loader also has a fuzz target: an error or a fully restored
# model, never a panic, a half-restored model or an allocation past its
# bound — its seed corpus, then a short fuzz pass.
gate plain ./internal/nn TestLoadParamsCorruptLengthFields TestLoadParamsTruncation \
	TestLoadParamsHugeCountAllocatesLittle FuzzLoadParams
go test -run '^$' -fuzz '^FuzzLoadParams$' -fuzztime 10s ./internal/nn
gate plain ./internal/snapshot TestSnapshotCorruption TestSnapshotTruncation
gate race ./internal/serve TestServeHotSwapRace
gate plain . TestServePublishServeQueryE2E

# The snapshot is the serving table: the answers a replica serves after
# Capture → PublishNext → Read → NewBundle (recorded while a replica still
# rebuilt the training system), the served tables against the trainer's own
# evaluation, Capture leaving training bit-identical, the matrix header
# whose 8·rows·cols wraps (at the tensor and the snapshot layer), resealed
# body edits, the seed corpus of FuzzDecode, then a short fuzz pass.
gate plain ./internal/serve TestServedAnswersGolden TestServeBundleBitIdentical
gate plain ./internal/core TestInferenceSystemBitIdentical TestInferenceSystemRepeatedForwards
gate plain ./internal/tensor TestUnmarshalOverflowingHeader
gate plain ./internal/snapshot \
	TestSnapshotRoundTrip TestCaptureLeavesTrainingUnchanged \
	TestSnapshotMatrixOverflowHeader TestSnapshotResealedTablesRejected \
	TestSnapshotBadMagicAndFormat FuzzDecode
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/snapshot

# Contact-graph files: a declared device count is bounded before it sizes
# anything (a 30-byte file once built a 50M-device topology), a file: spec
# for the wrong fleet is refused before allocating, malformed files are
# refused (an edge of one or three endpoints once loaded as a pair, and
# bytes after the object were ignored), then the seed corpora of
# FuzzReadTopology (JSON; its CSV seeds must be refused) and FuzzParseSpec
# and a short fuzz pass of each.
gate plain ./internal/topo \
	TestReadRejectsHugeNodeCount TestBuildFileRejectsCountBeforeAllocating \
	TestReadRejectsMalformed FuzzReadTopology FuzzParseSpec
go test -run '^$' -fuzz '^FuzzReadTopology$' -fuzztime 10s ./internal/topo
go test -run '^$' -fuzz '^FuzzParseSpec$' -fuzztime 10s ./internal/topo

# The HTTP transcript golden (every status and body across a replica's life)
# and Close refusing later queries with a 503, twice without a panic.
gate plain ./internal/serve TestServeHTTPGolden TestCloseRefusesQueries

# One flag set: every smoke row's transcript golden (checked inside
# TestEntryPointsBuildAndRun) and every CLI's flag-set golden, both recorded
# before the shared flag groups moved into internal/cli; the epoch trainers
# refusing -sched (they train sync epochs; only lumos-sim schedules rounds);
# and the internal/cli group tests.
gate plain . TestEntryPointsBuildAndRun TestCLIFlagSets TestEpochTrainersRefuseSched
gate plain ./internal/cli \
	TestGroupsBindDefaultsAndParse TestRegisterOnly TestModelConfig \
	TestManifest TestRecordStartWithoutFlags TestRecordPerModePaths

# Report gates: the analyzer/diff/record unit suites (critical-path
# attribution under the race detector, the e2e straggler-blame acceptance
# check, the diff identity and doctored-regression tests, and the record
# round trip), plus the lumos-report smoke rows, plus a live CLI round trip —
# record a tiny run, render it, self-diff (must exit 0), then doctor the
# copy's final metric and wall-clock and require a nonzero exit.
gate race ./internal/report \
	TestCriticalPathSyncContended TestCriticalPathAsyncQuorum TestCriticalPathGossipDelta \
	TestAnalyzeUtilization TestE2EStragglerBlameMatchesSlowestDevice \
	TestDiffSelfIsClean TestDiffCatchesRegression \
	TestRunRecordRoundTrip TestLoadTruncatedTail
gate plain . \
	TestEntryPointsBuildAndRun/lumos-report-run \
	TestEntryPointsBuildAndRun/lumos-report-diff \
	TestEntryPointsBuildAndRun/lumos-report-trace

recdir=$(mktemp -d)
trap 'rm -rf "$recdir"' EXIT
go run ./cmd/lumos-sim -dataset facebook -scale 0.005 -rounds 3 -mcmc 10 \
	-fleet zipf -run-out "$recdir/base" >/dev/null
go run ./cmd/lumos-report run "$recdir/base" >/dev/null
go run ./cmd/lumos-report diff "$recdir/base" "$recdir/base" >/dev/null
cp -r "$recdir/base" "$recdir/doctored"
# Perturb the doctored record past both the metric and wall-clock
# thresholds; the diff gate must refuse it.
mkdir -p "$recdir/doctor"
cat >"$recdir/doctor/main.go" <<'EOF'
package main

import (
	"encoding/json"
	"os"
)

func main() {
	path := os.Args[1]
	raw, err := os.ReadFile(path)
	if err != nil {
		panic(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		panic(err)
	}
	m["final_metric"] = m["final_metric"].(float64) - 0.5
	m["wall_clock"] = m["wall_clock"].(float64) * 2
	out, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		panic(err)
	}
}
EOF
go run "$recdir/doctor/main.go" "$recdir/doctored/manifest.json"
if go run ./cmd/lumos-report diff "$recdir/base" "$recdir/doctored" >/dev/null 2>&1; then
	echo "report gate: doctored record passed the diff gate" >&2
	exit 1
fi

go test -race -short ./internal/... ./...
