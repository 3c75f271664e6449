#!/usr/bin/env sh
# Build a sanitizer preset and run the suite that preset is meant to audit.
#
#   tools/run_sanitizer.sh tsan  [extra ctest args...]
#   tools/run_sanitizer.sh asan  [extra ctest args...]   # alias for asan-ubsan
#   tools/run_sanitizer.sh ubsan [extra ctest args...]   # alias for asan-ubsan
#
# tsan      — races the fleet-parallel execution layer: thread-pool, simulator,
#             and stats unit tests under ThreadSanitizer, then the cross-
#             thread-count determinism tests at 1 and 8 workers. Any data race
#             in the parallel shelf/system fan-out, the chunked pipeline,
#             or the bootstrap replicate split fails the script.
# asan/ubsan — the full ctest suite under AddressSanitizer + UBSan with
#             -fno-sanitize-recover=all, so any heap error, leak, signed
#             overflow, or container overflow aborts the offending test.
#
# See docs/static-analysis.md for how this fits the verify loop.
set -eu

if [ "$#" -lt 1 ]; then
  echo "usage: $0 {tsan|asan|ubsan|asan-ubsan} [extra ctest args...]" >&2
  exit 2
fi

mode="$1"
shift

case "$mode" in
  tsan) preset=tsan ;;
  asan | ubsan | asan-ubsan) preset=asan-ubsan ;;
  *)
    echo "$0: unknown sanitizer '$mode' (expected tsan, asan, ubsan, or asan-ubsan)" >&2
    exit 2
    ;;
esac

cd "$(dirname "$0")/.."

cmake --preset "$preset"
cmake --build --preset "$preset" -j "$(nproc)"

# The lint gate is milliseconds and the instrumented build just produced a
# fresh storsim_lint; run it so a sanitizer pass cannot green-light a tree
# the default verify loop would reject.
"./build-${preset}/tools/storsim_lint" --check --root . src bench tests tools examples

run_ctest() {
  ctest --test-dir "build-${preset}" --output-on-failure "$@"
}

if [ "$preset" = tsan ]; then
  # Unit tests for the parallel substrate and everything that fans out on it.
  run_ctest -R 'ThreadPool|ParallelFor|ThreadConfig'
  run_ctest -R 'Simulator\.|Bootstrap'

  # Observability registry and trace buffers: relaxed per-thread shard writes
  # merged by snapshot() — exactly the lock-free fast path TSan audits. The
  # Determinism tests drive the full pipeline at 1/4/8 workers with the obs
  # layer recording throughout.
  run_ctest -R 'Registry\.|Trace\.|Span\.|Determinism\.'

  # storsimd: 16 concurrent clients against the real poll loop, the request
  # pool, and the shard LRU — the hottest lock choreography in the tree
  # (loop/worker fd hand-back, pin/evict vs. mmap teardown, drain vs.
  # in-flight requests).
  run_ctest -R 'ServeSuite\.'

  # Determinism contract under contention and with an oversubscribed pool:
  # the invariance tests internally compare 1-thread vs 4-thread runs; running
  # them with the pool default pinned to 1 and then 8 exercises both the
  # inline path and heavy oversubscription on small machines.
  for threads in 1 8; do
    echo "== determinism tests with STORSIM_THREADS=${threads} =="
    STORSIM_THREADS="${threads}" run_ctest \
      -R 'BitIdenticalAcrossThreadCounts' "$@"
  done
  echo "TSan suite passed."
else
  # Leak checking is on by default under ASan; keep it that way and fail hard
  # on any UB diagnostic.
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
    run_ctest "$@"
  echo "ASan/UBSan suite passed."
fi
