#!/usr/bin/env bash
# Runs the experiment bench suite with machine-readable export enabled
# and collects each bench's metric snapshot into BENCH_<name>.json at
# the repository root (one JSON line per run; see obs/export.hpp for
# the format). Benches that do not export metrics still run — their
# stdout lands in <build-dir>/bench-logs/<name>.log either way.
#
# Usage: scripts/run_benches.sh [build-dir] [bench-name...]
#   build-dir   defaults to ./build (or FLEX_BUILD_DIR)
#   bench-name  run only the named benches (default: all in build/bench);
#               the solver thread sweep (BENCH_solver.json) runs only
#               when no bench is named or bench_solver_perf is
#
# Tuning (inherited by every bench):
#   FLEX_SOLVE_SECONDS  per-batch MILP budget (default here: 1)
#   FLEX_BENCH_TRACES   shuffled trace variants (default here: 3)
#
# Exit status: 0 when every bench exited 0; 1 otherwise (all benches
# still run — a failing bench does not stop the sweep).
set -uo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${FLEX_BUILD_DIR:-${repo_root}/build}}"
[[ $# -gt 0 ]] && shift

if [[ ! -d "${build_dir}/bench" ]]; then
  echo "run_benches: ${build_dir}/bench not found (build first)" >&2
  exit 2
fi

# Keep the default sweep fast; CI/users override for fidelity.
export FLEX_SOLVE_SECONDS="${FLEX_SOLVE_SECONDS:-1}"
export FLEX_BENCH_TRACES="${FLEX_BENCH_TRACES:-3}"

# Every exported snapshot is stamped with its provenance (stamp_json).
source "${repo_root}/scripts/bench_stamp.sh"

benches=("$@")
sweep_solver=0
if [[ ${#benches[@]} -eq 0 ]]; then
  sweep_solver=1
  for path in "${build_dir}"/bench/*; do
    [[ -x "${path}" && -f "${path}" ]] && benches+=("$(basename "${path}")")
  done
fi
for bench in "${benches[@]}"; do
  [[ "${bench}" == "bench_solver_perf" ]] && sweep_solver=1
done

log_dir="${build_dir}/bench-logs"
mkdir -p "${log_dir}"

failures=()
for bench in "${benches[@]}"; do
  # bench_solver_perf only runs in the thread sweep below: a plain run
  # here would duplicate the sweep's final line as BENCH_solver_perf.json
  # (near-identical payloads under two names), and every consumer —
  # check_budget.sh included — reads BENCH_solver.json.
  [[ "${bench}" == "bench_solver_perf" ]] && continue
  binary="${build_dir}/bench/${bench}"
  if [[ ! -x "${binary}" ]]; then
    echo "run_benches: skipping ${bench} (not built)" >&2
    continue
  fi
  out_json="${repo_root}/BENCH_${bench#bench_}.json"
  rm -f "${out_json}"
  echo "run_benches: ${bench} -> ${out_json}"
  if ! FLEX_BENCH_JSON="${out_json}" "${binary}" \
      > "${log_dir}/${bench}.log" 2>&1; then
    echo "run_benches: ${bench} FAILED (see ${log_dir}/${bench}.log)" >&2
    failures+=("${bench}")
  fi
  # Benches without metric export leave no JSON behind; drop the stub.
  [[ -s "${out_json}" ]] || rm -f "${out_json}"
  stamp_json "${out_json}"
done

# Thread-scaling baseline: run the solver bench once per thread count
# and append each snapshot to BENCH_solver.json. Each JSON line carries
# solver.parallel.speedup, solver.parallel.baseline_threads, and
# solver.parallel.basis_hit_rate, so the file records the scaling
# baseline for this machine. The sweep always includes a >= 2-thread
# run: a 1-vs-1 comparison only measures pool overhead (the degenerate
# "speedup 0.98" readings single-core machines used to report).
solver_binary="${build_dir}/bench/bench_solver_perf"
if [[ "${sweep_solver}" == "1" && -x "${solver_binary}" ]]; then
  sweep_json="${repo_root}/BENCH_solver.json"
  rm -f "${sweep_json}"
  hw_threads="${hw_concurrency}"
  thread_counts=(1 2)
  [[ "${hw_threads}" -gt 2 ]] && thread_counts+=("${hw_threads}")
  for threads in "${thread_counts[@]}"; do
    echo "run_benches: bench_solver_perf (FLEX_SOLVER_THREADS=${threads}) -> ${sweep_json}"
    if ! FLEX_BENCH_JSON="${sweep_json}" FLEX_SOLVER_THREADS="${threads}" \
        "${solver_binary}" --benchmark_filter='^$' \
        > "${log_dir}/bench_solver_perf.threads${threads}.log" 2>&1; then
      echo "run_benches: solver thread sweep (${threads}) FAILED" >&2
      failures+=("bench_solver_perf.threads${threads}")
    fi
  done
  [[ -s "${sweep_json}" ]] || rm -f "${sweep_json}"
  stamp_json "${sweep_json}"
fi

if [[ ${#failures[@]} -gt 0 ]]; then
  echo "run_benches: ${#failures[@]} bench(es) failed: ${failures[*]}" >&2
  exit 1
fi
echo "run_benches: all ${#benches[@]} benches passed"
