#!/usr/bin/env bash
# Builds the repository with FLEX_SANITIZE=ON (ASan + UBSan) in a
# dedicated build tree and runs the tier-1 ctest suite under it, then
# builds a second tree with FLEX_SANITIZE_THREAD=ON (TSan) and runs the
# concurrency-heavy suites (the thread pool and every common::Lanes
# caller, the solver, offline placement, the HTTP plane) under that.
#
# Usage: scripts/run_sanitized_tests.sh [ctest args...]
#   e.g. scripts/run_sanitized_tests.sh -R fault_test
# Set FLEX_SKIP_TSAN=1 to run only the ASan/UBSan half.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${FLEX_SANITIZE_BUILD_DIR:-${repo_root}/build-asan}"

cmake -B "${build_dir}" -S "${repo_root}" -DFLEX_SANITIZE=ON
cmake --build "${build_dir}" -j"$(nproc)"

# abort_on_error surfaces ASan reports as test failures; the UBSan
# half already aborts via -fno-sanitize-recover=undefined.
# detect_stack_use_after_return catches a pointer that outlives the
# stack frame owning what it points at.
export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1:detect_leaks=1:detect_stack_use_after_return=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"

cd "${build_dir}"
ctest --output-on-failure -j"$(nproc)" "$@"

# Focused pass over the observability stack: the flight recorder, the
# forensic bundle writer/loader and the replay path shuffle raw buffers
# and parse untrusted bundle files, which is exactly where the
# sanitizers earn their keep. gtest_discover_tests registers per-case
# names, so run the two binaries directly rather than matching by
# ctest name. Redundant with a full-suite run above, but cheap, and
# keeps `run_sanitized_tests.sh -R <other>` honest too.
echo "run_sanitized_tests: focused obs/fault recorder pass"
"${build_dir}/tests/obs_test" --gtest_brief=1
"${build_dir}/tests/fault_test" --gtest_brief=1
# The HTTP plane parses raw request bytes off real sockets and renders
# from concurrently-published snapshots — both prime sanitizer targets.
"${build_dir}/tests/obs_http_test" --gtest_brief=1
# Time-series ring arithmetic and the alert state machine index into
# preallocated rings under eviction pressure — classic off-by-one soil.
"${build_dir}/tests/obs_timeseries_test" --gtest_brief=1
"${build_dir}/tests/obs_alerts_test" --gtest_brief=1
# The event kernel indexes its slot table and node pool by id bits and
# runs periodic callbacks in place while they add slots.
"${build_dir}/tests/sim_test" --gtest_brief=1
# Room-wide state is stored once: physical meters sit in one flat array
# indexed by device x meter, consensus reads fill a fixed stack buffer,
# rack managers reach their plane through a back pointer, and the
# controller replicas index one shared rack table by rack id.
"${build_dir}/tests/telemetry_test" --gtest_brief=1
"${build_dir}/tests/actuation_test" --gtest_brief=1
"${build_dir}/tests/online_test" --gtest_brief=1
# The fleet engine steps rooms on pool lanes and merges at epoch
# barriers; its bit-identity suite doubles as a memory-safety probe of
# the lane-local arenas and the serial merge path.
"${build_dir}/tests/fleet_test" --gtest_brief=1
# The trip watch indexes per-UPS state by the loads it is handed, and
# its random-walk property test drives it through thousands of
# intervals, zero-length ones included.
"${build_dir}/tests/power_test" --gtest_brief=1
# The room's one pass per workload step reads seven rack arrays through
# raw pointers, and Rng::Normal bit-casts the sign into each draw.
"${build_dir}/tests/emulation_test" --gtest_brief=1
"${build_dir}/tests/common_test" --gtest_brief=1

if [[ "${FLEX_SKIP_TSAN:-0}" == "1" ]]; then
  echo "run_sanitized_tests: FLEX_SKIP_TSAN=1, skipping TSan pass"
  exit 0
fi

# ThreadSanitizer pass: a separate tree (TSan is incompatible with
# ASan), focused on the suites that exercise the thread pool, the
# parallel branch-and-bound waves, the placement fan-out, and the
# HTTP scrape thread racing the fleet lanes. TSan findings abort the
# run via the non-zero exit of the test binary.
tsan_dir="${FLEX_TSAN_BUILD_DIR:-${repo_root}/build-tsan}"
cmake -B "${tsan_dir}" -S "${repo_root}" -DFLEX_SANITIZE_THREAD=ON
cmake --build "${tsan_dir}" -j"$(nproc)"

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
echo "run_sanitized_tests: TSan pass (pool, lanes, solver, offline, HTTP)"
"${tsan_dir}/tests/common_test" --gtest_brief=1
"${tsan_dir}/tests/solver_test" --gtest_brief=1
"${tsan_dir}/tests/solver_lp_differential_test" --gtest_brief=1
"${tsan_dir}/tests/offline_test" --gtest_brief=1
"${tsan_dir}/tests/obs_http_test" --gtest_brief=1
# Alert engine, store and forensic drills; the cross-lane alert
# timeline drill itself runs in fleet_test below.
"${tsan_dir}/tests/obs_alerts_test" --gtest_brief=1
# Every common::Lanes caller runs here. Fleet lanes step concurrent
# RoomEmulations against the epoch barrier (any cross-lane write TSan
# finds is also a determinism bug); Monte Carlo chunks and fuzz-sweep
# scenarios fan out on 2-3 lanes. The filters keep the pass short.
"${tsan_dir}/tests/fleet_test" --gtest_brief=1
"${tsan_dir}/tests/analysis_test" --gtest_brief=1 \
  --gtest_filter='MonteCarloTest.IsBitIdenticalForAnyThreadCount'
"${tsan_dir}/tests/fault_test" --gtest_brief=1 \
  --gtest_filter='RunFuzzSweepTest.*'
