#!/usr/bin/env bash
# Pre-PR gate: configure + build + lint + test across the presets that prove
# different things:
#
#   default   correctness (full suite, incl. the lint/lint_selftest tests)
#             plus the figure2 and parallel bench-regression gates against
#             the committed baselines in bench/baselines/
#   analysis  static-analysis gate: regex lint (self-test + live, fallback
#             rules auto-retired when clang++ is present) and the AST
#             protocol analyzer (tools/elephant_analyze) — checker self-test
#             on committed AST fixtures plus a live run over
#             compile_commands.json that SKIPS LOUDLY when clang++ is absent
#   analyze   Clang -Wthread-safety -Werror whole-tree lock-discipline proof
#   sanitize  ASan + UBSan
#   telemetry run a traced multi-session PARALLEL workload on the default
#             build and validate the export formats (Chrome trace JSON,
#             Prometheus text, stat-statements JSON) with
#             scripts/telemetry_check.py, plus the bench-regression
#             self-tests
#   recovery  the crash-recovery matrix (tools/crash_matrix): crash the
#             simulated machine at every durable op of a DML workload, plus
#             torn-WAL-flush and dropped-fsync modes, and verify recovery
#             restores exactly the committed prefix (base table, MV, and
#             c-tables checked against a shadow oracle)
#
# The analyze preset needs clang++; when it is not installed the preset is
# skipped with a loud notice (the annotations compile as no-ops under GCC, so
# the default build still exercises the same code).
#
# Usage: scripts/check.sh [preset ...]
#        (default: default analyze sanitize telemetry recovery)
set -euo pipefail

cd "$(dirname "$0")/.."

PRESETS=("$@")
if [ ${#PRESETS[@]} -eq 0 ]; then
  PRESETS=(default analysis analyze sanitize telemetry recovery)
fi

for preset in "${PRESETS[@]}"; do
  if [ "$preset" = analysis ]; then
    echo "=== [$preset] configure ==============================================="
    cmake --preset default
    echo "=== [$preset] lint self-test =========================================="
    python3 scripts/elephant_lint.py --self-test
    echo "=== [$preset] lint ===================================================="
    python3 scripts/elephant_lint.py
    echo "=== [$preset] analyzer self-test ======================================"
    python3 tools/elephant_analyze --self-test
    echo "=== [$preset] analyzer live run ======================================="
    # Prints a SKIPPED notice (exit 0) when clang++ is not installed; the
    # ctest `analysis` label turns the same notice into an explicit Skipped.
    python3 tools/elephant_analyze --build-dir build
    continue
  fi
  if [ "$preset" = recovery ]; then
    echo "=== [$preset] build ==================================================="
    cmake --preset default
    cmake --build --preset default -j "$(nproc)" --target crash_matrix
    echo "=== [$preset] crash matrix ============================================"
    ./build/tools/crash_matrix
    continue
  fi
  if [ "$preset" = telemetry ]; then
    echo "=== [$preset] build ==================================================="
    cmake --preset default
    cmake --build --preset default -j "$(nproc)" --target bench_parallel
    echo "=== [$preset] traced workload ========================================="
    trace_dir="build/telemetry_check"
    mkdir -p "$trace_dir"
    ELEPHANT_SF=0.005 ./build/bench/bench_parallel \
      --trace "$trace_dir/trace.json" \
      --metrics "$trace_dir/metrics.prom" \
      --stat-statements "$trace_dir/stat_statements.json" >/dev/null
    echo "=== [$preset] validate exports ========================================"
    python3 scripts/telemetry_check.py \
      --trace "$trace_dir/trace.json" --min-worker-threads 2 \
      --metrics "$trace_dir/metrics.prom" \
      --stat-statements "$trace_dir/stat_statements.json" \
      --wait-events
    echo "=== [$preset] bench-regression self-tests ============================="
    python3 scripts/bench_regress.py figure2 --self-test
    python3 scripts/bench_regress.py parallel --self-test
    continue
  fi
  if [ "$preset" = analyze ] && ! command -v clang++ >/dev/null 2>&1; then
    echo "=== [$preset] SKIPPED: clang++ not installed =========================="
    echo "    Thread-safety annotations were NOT statically verified."
    echo "    Install clang and re-run: scripts/check.sh analyze"
    continue
  fi
  echo "=== [$preset] configure ==============================================="
  cmake --preset "$preset"
  echo "=== [$preset] build ==================================================="
  cmake --build --preset "$preset" -j "$(nproc)"
  echo "=== [$preset] lint ===================================================="
  python3 scripts/elephant_lint.py
  echo "=== [$preset] test ===================================================="
  ctest --preset "$preset" -j "$(nproc)"
  if [ "$preset" = default ] || [ "$preset" = sanitize ]; then
    echo "=== [$preset] storage label (read-ahead / eviction) ==================="
    ctest --preset "$preset" -L storage --output-on-failure
    echo "=== [$preset] obs label (telemetry / stat tables) ====================="
    ctest --preset "$preset" -L obs --output-on-failure
    echo "=== [$preset] txn label (transactions / recovery) ====================="
    ctest --preset "$preset" -L txn --output-on-failure
    echo "=== [$preset] batch-vs-Volcano identity (vectorized engine) ==========="
    # The differential harness: every query shape runs Volcano (NO_BATCH),
    # batch serial, and batch PARALLEL 4, and must be byte-identical at the
    # same plan shape (order-insensitive across plan shapes).
    ctest --preset "$preset" -R "Batch" --output-on-failure
  fi
  if [ "$preset" = default ]; then
    echo "=== [$preset] bench-regression gates (committed baselines) ==========="
    # Rows and checksums exactly, modeled I/O within the baseline's stored
    # tolerance, at the baseline's pinned scale factor.
    python3 scripts/bench_regress.py figure2 --build-dir build
    python3 scripts/bench_regress.py parallel --build-dir build
  fi
done

echo "=== check.sh: all requested presets passed ============================"
