#!/usr/bin/env bash
# Builds the test suite under sanitizers and runs it, in a dedicated build
# tree so the regular build/ stays untouched.
#
# Modes (selected by the OMNIFAIR_SANITIZE environment variable):
#   default / unset        AddressSanitizer + UBSan over the full suite
#                          (build-sanitized/), which includes the chaos-
#                          labelled durability tests (fault-injected IO,
#                          crash/resume, corrupted/truncated model bundles
#                          walked byte-by-byte through the mmap loader, and
#                          the streaming-ingest spill path under injected
#                          ENOSPC/short-write/short-read faults).
#   OMNIFAIR_SANITIZE=thread
#                          ThreadSanitizer over the concurrency- and
#                          chaos-labelled tests only (build-tsan/): the
#                          thread pool, the parallel tuner determinism
#                          suite, telemetry, the metrics exporter (its
#                          background snapshot thread racing registry
#                          writers) and run-profiler tests, the serving
#                          layer (bounded admission queue racing pool
#                          workers against submitters), checkpoint/resume
#                          (whose parallel-grid resume exercises record
#                          barriers across workers), and the streaming
#                          ingest + tuner (test_stream_reader /
#                          test_stream_tune: pool-parallel block parsing
#                          and mini-batch SGD must be bit-identical at any
#                          thread count), and the CSV parser (test_csv:
#                          row ranges parsed on the pool, dictionaries
#                          merged after). TSan is incompatible with ASan,
#                          hence the separate tree and mode.
#
# Usage: [OMNIFAIR_SANITIZE=thread] tools/run_sanitized_tests.sh [extra ctest args...]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
mode="${OMNIFAIR_SANITIZE:-address}"

# Force the vectorized kernel path so the SIMD-vs-scalar parity suite
# (test_simd) and everything routed through simd::Active() run the real
# AVX2/NEON code under the sanitizers, not the scalar fallback a stray
# OMNIFAIR_SIMD=off in the caller's environment would select.
export OMNIFAIR_SIMD=on

if [[ "${mode}" == "thread" ]]; then
  build_dir="${repo_root}/build-tsan"
  sanitizers="thread"
  ctest_args=(-L 'concurrency|chaos')
else
  build_dir="${repo_root}/build-sanitized"
  sanitizers="address;undefined"
  ctest_args=()
fi

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DOMNIFAIR_SANITIZE="${sanitizers}" \
  -DOMNIFAIR_BUILD_BENCHMARKS=OFF \
  -DOMNIFAIR_BUILD_EXAMPLES=OFF
cmake --build "${build_dir}" -j "$(nproc)"

if [[ "${mode}" == "thread" ]]; then
  # second_deadlock_stack gives both lock orders on reported inversions.
  export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
else
  # halt_on_error makes UBSan findings fail the run instead of just logging.
  export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
  export ASAN_OPTIONS="detect_leaks=1"
fi
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" \
  "${ctest_args[@]}" "$@"
