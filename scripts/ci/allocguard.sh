#!/usr/bin/env bash
# Allocation ratchet for the scheduling hot path.
#
# Unlike timings, allocs/op is deterministic on a given Go version — the
# allocator is not subject to machine drift — so this guard is a plain
# ratchet against a recorded baseline rather than benchguard.sh's
# interleaved A/B dance: run the guarded benchmarks with -benchmem,
# compare each benchmark's allocs/op against scripts/ci/allocs-baseline.txt,
# and fail when any benchmark allocates MORE than its recorded value.
# Allocating less prints a reminder to tighten the baseline (ratchets only
# move one way; tightening is a deliberate commit, not an automatic one).
#
# Two benchmark sets run at different iteration counts:
#   - per-decision benchmarks at ITERS (default 1000x) so one-time pool
#     warm-up amortizes to zero and the steady-state contract is what is
#     measured (the baseline records 0 for all of them, the drop path
#     included: BenchmarkScheduleOneDrop);
#   - whole-run benchmarks (the churn cell) at 1x, where the recorded
#     value is the per-cell setup cost — state construction, stream,
#     windows — that a regression in any layer's hot path would inflate.
#
# The baseline is recorded on the CI Go version (see ci.yml's allocs job);
# other Go versions may count runtime-internal allocations differently,
# so local runs on a different toolchain are advisory.
#
# Usage: allocguard.sh
# Environment: ITERS (default 1000x), OUT (default alloc-guard),
#   BASELINE (default scripts/ci/allocs-baseline.txt).
set -euo pipefail

ITERS=${ITERS:-1000x}
OUT=${OUT:-alloc-guard}
BASELINE=${BASELINE:-scripts/ci/allocs-baseline.txt}
HOT='BenchmarkScheduleOne$|BenchmarkScheduleOneAllocs|BenchmarkScheduleOneDrop|BenchmarkScheduleOneUnderFaults|BenchmarkScheduleOneResumed|BenchmarkScheduleOnePreempt|BenchmarkDriverPlace|BenchmarkAllocateVM$|BenchmarkProposeCommit$'
RUN='BenchmarkChurnSteadyState$|BenchmarkChurnAgents/agents4'
# The SoA hot path at hyperscale: the same zero-alloc contract on the
# 16384-rack (~100k box) cluster, where a stray per-decision allocation
# would also be a cache-behavior regression. NALB is pinned at 1152 racks
# instead — its global best-uplink scan is Θ(fitting boxes) by definition,
# so its 16k pre-load alone (~450k NALB decisions) would dominate the job.
SCALE='BenchmarkScheduleOneScale$/^racks=16384$/^(NULB|RISA|RISA-BF)$'
SCALE_NALB='BenchmarkScheduleOneScale$/^racks=1152$/^NALB$'

mkdir -p "$OUT"
: >"$OUT/measured.txt"

# Go appends a -GOMAXPROCS suffix to benchmark names whenever
# GOMAXPROCS != 1 (the 1-CPU calibration container omits it, multi-core
# CI runners do not); strip it so the baseline is host-independent. The
# pattern only strips a trailing -<digits>, so names like RISA-BF are
# untouched.
normalize='{name=$1; sub(/-[0-9]+$/, "", name); print name, $(NF-1)}'

echo "== allocguard: per-decision benchmarks ($ITERS)"
go test -run '^$' -bench "$HOT" -benchmem -benchtime "$ITERS" -count 1 . \
  | tee -a "$OUT/bench.txt" \
  | { grep -E '^Benchmark' || true; } \
  | awk "$normalize" >>"$OUT/measured.txt"

echo "== allocguard: whole-run benchmarks (1x)"
go test -run '^$' -bench "$RUN" -benchmem -benchtime 1x -count 1 . \
  | tee -a "$OUT/bench.txt" \
  | { grep -E '^Benchmark' || true; } \
  | awk "$normalize" >>"$OUT/measured.txt"

echo "== allocguard: hyperscale decision benchmarks ($ITERS)"
for pat in "$SCALE" "$SCALE_NALB"; do
  go test -run '^$' -bench "$pat" -benchmem -benchtime "$ITERS" -count 1 . \
    | tee -a "$OUT/bench.txt" \
    | { grep -E '^Benchmark' || true; } \
    | awk "$normalize" >>"$OUT/measured.txt"
done

awk '
  FNR == NR {
    if ($0 ~ /^#/ || NF < 2) next
    base[$1] = $2 + 0
    next
  }
  {
    name = $1; measured = $2 + 0; seen[name] = 1
    if (!(name in base)) {
      printf "NEW %s: %d allocs/op unguarded — add it to the baseline\n", name, measured
      bad = 1
      next
    }
    if (measured > base[name]) {
      printf "REGRESSION %s: %d allocs/op, baseline %d\n", name, measured, base[name]
      bad = 1
    } else if (measured < base[name]) {
      printf "improved %s: %d allocs/op, baseline %d — consider tightening the baseline\n", name, measured, base[name]
    } else {
      printf "ok %s: %d allocs/op\n", name, measured
    }
  }
  END {
    for (name in base) {
      if (!(name in seen)) {
        printf "MISSING %s: guarded benchmark did not run\n", name
        bad = 1
      }
    }
    exit bad
  }
' "$BASELINE" "$OUT/measured.txt" | tee "$OUT/verdict.txt"
test "${PIPESTATUS[0]}" -eq 0
