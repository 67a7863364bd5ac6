#!/usr/bin/env bash
# bench.sh: run the performance-tracking benchmark set and emit a JSON
# snapshot (default BENCH.json) for scripts/benchdiff.go.
#
# The set is split in three because the right benchtime differs:
#   - simulator benchmarks (all three Table 3 kernels and the cold paper
#     grid through the service pool, BenchmarkColdGrid, plus the first-run
#     cost of the corner-turn and CSLC golden checks with every memo
#     purged, BenchmarkVerifyCold — for CSLC the paper instance
#     (cslc) and a sweep-sized spec checked at radix 2 and mixed
#     radix-4/2 (cslc-sweep) — the 128-point naive DFT/IDFT
#     those checks reference, BenchmarkNaiveDFT, the PPC cells with
#     every memo purged, BenchmarkWalkCold — the Table 3 PPC and
#     AltiVec rows read the G4 trace memo after their first iteration —
#     and a sweep-sized VIRAM CSLC cell traced, on purged memos and
#     warm, BenchmarkCSLCSweepCell — Table3CSLC/VIRAM reads the segment
#     memo after its first iteration, as the G4 rows read theirs; every
#     Table 3 row reads the verdict memo after its first iteration, so
#     its proof is paid once; ColdGrid, WalkCold, VerifyCold and
#     CSLCSweepCell/cold purge every process-wide memo with one call,
#     cache.PurgeProcessMemos), and the
#     DRAM model alone (BenchmarkSequentialStream1M,
#     BenchmarkStridedStream1M, and one strip on the reordering
#     controllers, BenchmarkReorderStream): a
#     handful of fixed iterations — a Table 3 iteration is a full
#     deterministic simulation, so more iterations only burn time;
#   - service benchmarks (BenchmarkServiceThroughput, whose memo-hit
#     rows run a 64-job and the default 4,096-job registry) and the 128-point
#     FFT core every CSLC check and pipeline runs, at both precisions
#     (BenchmarkFFT128Radix2, BenchmarkFFT128Mixed,
#     BenchmarkFFT128Mixed32): time-based, the usual regime for
#     nanosecond- and microsecond-scale operations;
#   - grid benchmarks (BenchmarkBatchGrid, BenchmarkDSEGrid): one fixed
#     iteration — each iteration drives a full 1,000-cell machine×kernel
#     grid (or a whole design-space sweep), and the sequential-jobs leg
#     alone takes seconds, so time-based sampling would just rerun
#     multi-second grids.
#
# Each benchmark runs -count times and benchdiff keeps the best (min
# ns/op) run per benchmark: min-of-N filters out scheduler noise, which
# matters because the 15% wall-clock gate is tighter than single-sample
# jitter on a busy machine. Simulated cycle counts are identical across
# runs regardless.
#
# Environment knobs:
#   BENCH_COUNT    (default 3)     repetitions per benchmark (min is kept)
#   SIM_BENCHTIME  (default 20x)   benchtime for the simulator set
#   SVC_BENCHTIME  (default 0.5s)  benchtime for the service and FFT128 set
#   GRID_BENCHTIME (default 1x)    benchtime for the batch-grid set
#
# Usage: scripts/bench.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run='^$' -bench='Table3CornerTurn|Table3CSLC|Table3BeamSteering|ColdGrid' -benchmem \
    -count="${BENCH_COUNT:-3}" -benchtime="${SIM_BENCHTIME:-20x}" . | tee "$tmp"
go test -run='^$' -bench='VerifyCold|NaiveDFT|WalkCold|Stream1M|ReorderStream|CSLCSweepCell' -benchmem \
    -count="${BENCH_COUNT:-3}" -benchtime="${SIM_BENCHTIME:-20x}" \
    ./internal/kernels/cornerturn ./internal/kernels/cslc ./internal/kernels/fft ./internal/ppc \
    ./internal/dram ./internal/viram | tee -a "$tmp"
go test -run='^$' -bench='ServiceThroughput|EstimateTier' -benchmem \
    -count="${BENCH_COUNT:-3}" -benchtime="${SVC_BENCHTIME:-0.5s}" . | tee -a "$tmp"
go test -run='^$' -bench='FFT128' -benchmem \
    -count="${BENCH_COUNT:-3}" -benchtime="${SVC_BENCHTIME:-0.5s}" ./internal/kernels/fft | tee -a "$tmp"
go test -run='^$' -bench='BatchGrid|DSEGrid' -benchmem \
    -count="${BENCH_COUNT:-3}" -benchtime="${GRID_BENCHTIME:-1x}" . | tee -a "$tmp"

go run scripts/benchdiff.go -emit "$tmp" > "$out"
echo "wrote $out"
