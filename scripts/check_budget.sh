#!/usr/bin/env bash
# Runs the two latency benches with machine-readable export enabled,
# collects their metric snapshots into BENCH_obs.json (one JSON line per
# bench), and verifies the paper's temporal safety claim: the p99
# end-to-end reaction must beat the UPS tolerance window (~10 s at end
# of battery life, Section IV-E).
#
# Usage: scripts/check_budget.sh [build-dir] [output-json]
#   build-dir    defaults to ./build (or FLEX_BUILD_DIR)
#   output-json  defaults to <build-dir>/BENCH_obs.json (or FLEX_BENCH_JSON)
#
# Exit status: 0 when the reaction budget holds, non-zero otherwise.
# The export format is line-oriented JSON with fixed key order, so this
# script needs only sed/awk — no JSON parser. Every gate runs in turn; a
# gate whose input is missing prints a SKIP line instead of exiting, so
# later gates always get their say.
set -euo pipefail

# gauge LINE NAME [FIELD]: prints FIELD (default "value") of metric NAME
# from one exported JSON line, e.g. "NAME":{"type":"gauge","value":X} or
# a histogram's trailing "p99":X; prints nothing when absent.
gauge() {
  local name="${2//./\\.}"
  sed -n "s/.*\"${name}\":{[^}]*\"${3:-value}\":\([0-9eE.+-]*\)}.*/\1/p" \
    <<< "$1"
}

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${FLEX_BUILD_DIR:-${repo_root}/build}}"
out_json="${2:-${FLEX_BENCH_JSON:-${build_dir}/BENCH_obs.json}}"

for bench in bench_pipeline_latency bench_end_to_end; do
  if [[ ! -x "${build_dir}/bench/${bench}" ]]; then
    echo "check_budget: ${build_dir}/bench/${bench} not built" >&2
    echo "  (build first: cmake --build ${build_dir} --target ${bench})" >&2
    exit 2
  fi
done

rm -f "${out_json}"
# Stamped into the export and echoed in the verdict, so a pasted verdict
# line alone identifies the commit, the machine width and when the check
# ran.
source "${repo_root}/scripts/bench_stamp.sh"
# On failure, bench_end_to_end leaves a forensic bundle here.
forensics_dir="${FLEX_FORENSICS_DIR:-${build_dir}/forensics}"
echo "check_budget: running benches, exporting to ${out_json}"
FLEX_BENCH_JSON="${out_json}" "${build_dir}/bench/bench_pipeline_latency" \
  > "${build_dir}/bench_pipeline_latency.log" 2>&1
# bench_end_to_end exits non-zero when the room violates safety or a
# reaction misses its budget; keep going — the p99 check below decides,
# and the bundle pointer is what the operator triages from.
e2e_status=0
FLEX_BENCH_JSON="${out_json}" FLEX_FORENSICS_DIR="${forensics_dir}" \
  "${build_dir}/bench/bench_end_to_end" \
  > "${build_dir}/bench_end_to_end.log" 2>&1 || e2e_status=$?
if [[ "${e2e_status}" -ne 0 ]]; then
  echo "check_budget: bench_end_to_end exited ${e2e_status}" \
       "(log: ${build_dir}/bench_end_to_end.log)" >&2
fi

stamp_json "${out_json}"

e2e_line="$(grep '"bench":"bench_end_to_end"' "${out_json}" | tail -n 1)"
if [[ -z "${e2e_line}" ]]; then
  echo "check_budget: no bench_end_to_end line in ${out_json}" >&2
  exit 2
fi

p99="$(gauge "${e2e_line}" reaction.end_to_end_s p99)"
budget="$(gauge "${e2e_line}" reaction.budget_s)"
if [[ -z "${p99}" || -z "${budget}" ]]; then
  echo "check_budget: reaction metrics missing from ${out_json}" >&2
  exit 2
fi

echo "check_budget: reaction end-to-end p99 = ${p99} s, budget = ${budget} s"
if awk -v p99="${p99}" -v budget="${budget}" \
  'BEGIN { exit !(p99 + 0 < budget + 0) }'; then
  echo "check_budget: OK — reaction fits the tolerance window" \
       "(git_sha=${git_sha}, hw_concurrency=${hw_concurrency}," \
       "generated_utc=${generated_utc})"
else
  echo "check_budget: FAIL — p99 reaction exceeds the tolerance window" \
       "(git_sha=${git_sha}, hw_concurrency=${hw_concurrency}," \
       "generated_utc=${generated_utc})" >&2
  bundle="$(ls -dt "${forensics_dir}"/bundle-* 2>/dev/null | head -n 1)"
  if [[ -n "${bundle}" ]]; then
    echo "check_budget: forensic bundle: ${bundle}" >&2
    echo "  (triage recipe: EXPERIMENTS.md; replay: build/examples/flex_replay)" >&2
  fi
  exit 1
fi

# Fleet-engine gates (BENCH_fleet_scale.json, from scripts/run_benches.sh).
# Lane identity and merge overhead are hardware-independent and always
# enforced: the sharded fleet must hash bit-identically across lane
# counts, and the serial epoch-barrier merge must stay a rounding error
# next to the parallel stepping it synchronizes. The events/sec floor
# (largest ladder rung, 100k+ racks) and the serial-vs-parallel speedup
# only mean something on multi-core hardware and self-skip otherwise,
# same idiom as the solver speedup gate below.
fleet_json="${FLEX_FLEET_BENCH_JSON:-${repo_root}/BENCH_fleet_scale.json}"
max_merge_overhead_pct=5.0
min_fleet_events_per_sec=100000
min_fleet_speedup=1.2
if [[ ! -s "${fleet_json}" ]]; then
  echo "check_budget: SKIP fleet gates — ${fleet_json} not found" \
       "(generate with scripts/run_benches.sh)"
else
  fleet_line="$(tail -n 1 "${fleet_json}")"
  hash_match="$(gauge "${fleet_line}" fleet.lane_hash_match)"
  merge_pct="$(gauge "${fleet_line}" fleet.merge_overhead_pct)"
  fleet_events="$(gauge "${fleet_line}" fleet.events_per_sec)"
  fleet_speedup="$(gauge "${fleet_line}" fleet.scaling.speedup)"
  fleet_hw="$(sed -n 's/.*"hw_concurrency":\([0-9]*\),.*/\1/p' \
    <<< "${fleet_line}")"
  [[ -n "${fleet_hw}" ]] || fleet_hw="$(nproc)"
  if [[ -z "${hash_match}" || -z "${merge_pct}" ]]; then
    echo "check_budget: SKIP fleet gates — fleet.lane_hash_match /" \
         "fleet.merge_overhead_pct missing from ${fleet_json}" \
         "(regenerate with scripts/run_benches.sh)"
  else
    if ! awk -v m="${hash_match}" 'BEGIN { exit !(m + 0 == 1) }'; then
      echo "check_budget: FAIL — fleet diverged across lane counts" \
           "(fleet.lane_hash_match=${hash_match}; the epoch-barrier merge" \
           "or a room stepped under contention broke bit-identity)" >&2
      exit 1
    fi
    echo "check_budget: fleet lane identity holds, merge overhead =" \
         "${merge_pct}% (ceiling ${max_merge_overhead_pct}%)"
    if ! awk -v m="${merge_pct}" -v ceil="${max_merge_overhead_pct}" \
      'BEGIN { exit !(m + 0 < ceil + 0) }'; then
      echo "check_budget: FAIL — serial merge barrier consumes ${merge_pct}%" \
           "of fleet wall time (ceiling ${max_merge_overhead_pct}%; look for" \
           "new per-epoch allocation or O(rooms^2) work in the barrier)" >&2
      exit 1
    fi
    if awk -v hw="${fleet_hw}" 'BEGIN { exit !(hw + 0 < 2) }'; then
      echo "check_budget: SKIP fleet scaling gates — hw_concurrency=${fleet_hw}" \
           "< 2, parallel stepping is not measurable on this machine" \
           "(recorded ${fleet_events} events/sec, speedup ${fleet_speedup}x)"
    elif [[ -z "${fleet_events}" || -z "${fleet_speedup}" ]]; then
      echo "check_budget: SKIP fleet scaling gates — fleet.events_per_sec /" \
           "fleet.scaling.speedup missing from ${fleet_json}"
    else
      echo "check_budget: fleet events/sec = ${fleet_events} (floor" \
           "${min_fleet_events_per_sec}), scaling speedup = ${fleet_speedup}x" \
           "(floor ${min_fleet_speedup}x, hw_concurrency=${fleet_hw})"
      if ! awk -v e="${fleet_events}" -v floor="${min_fleet_events_per_sec}" \
        'BEGIN { exit !(e + 0 >= floor + 0) }'; then
        echo "check_budget: FAIL — ${fleet_events} fleet events/sec is below" \
             "${min_fleet_events_per_sec} at the 100k-rack rung (regression" \
             "in room stepping or lane scheduling)" >&2
        exit 1
      fi
      if ! awk -v s="${fleet_speedup}" -v floor="${min_fleet_speedup}" \
        'BEGIN { exit !(s + 0 >= floor + 0) }'; then
        echo "check_budget: FAIL — fleet serial-vs-parallel speedup" \
             "${fleet_speedup}x is below ${min_fleet_speedup}x on" \
             "${fleet_hw}-wide hardware (lanes are serializing; check the" \
             "pool handoff and the barrier)" >&2
        exit 1
      fi
    fi
    echo "check_budget: OK — fleet engine gates hold"
  fi
fi

# Solver warm-restart gates. Both are counter ratios, so they are
# hardware-independent (unlike the speedup gate below): the warm-basis
# hit rate says how often a branching child actually reused a
# factorized basis (adopt/patch/install) instead of going cold, and
# refactors-per-lp-solve says how many full refactorizations each LP
# cost — Forrest–Tomlin updates plus the set-difference basis patch
# keep it well below one. Floors/ceilings lock in the dual-simplex
# warm-restart work against regression.
solver_json="${FLEX_SOLVER_BENCH_JSON:-${repo_root}/BENCH_solver.json}"
min_hit_rate=0.8
max_refactor_rate=0.53
solver_line=""
if [[ -s "${solver_json}" ]]; then
  solver_line="$(tail -n 1 "${solver_json}")"
fi
if [[ -z "${solver_line}" ]]; then
  echo "check_budget: SKIP solver warm-restart gates — ${solver_json}" \
       "not found (generate with scripts/run_benches.sh)"
else
  hit_rate="$(gauge "${solver_line}" solver.warm_hit_rate)"
  refactor_rate="$(gauge "${solver_line}" solver.refactors_per_lp_solve)"
  if [[ -z "${hit_rate}" || -z "${refactor_rate}" ]]; then
    echo "check_budget: SKIP solver warm-restart gates — no" \
         "solver.warm_hit_rate / solver.refactors_per_lp_solve in" \
         "${solver_json} (regenerate with scripts/run_benches.sh)"
  else
    echo "check_budget: solver warm hit rate = ${hit_rate}" \
         "(floor ${min_hit_rate}), refactors per LP solve =" \
         "${refactor_rate} (ceiling ${max_refactor_rate})"
    if ! awk -v r="${hit_rate}" -v floor="${min_hit_rate}" \
      'BEGIN { exit !(r + 0 >= floor + 0) }'; then
      echo "check_budget: FAIL — warm-basis hit rate ${hit_rate} is below" \
           "${min_hit_rate} (branching children are going cold; check the" \
           "adopt/patch/install warm routes in revised_simplex)" >&2
      exit 1
    fi
    if ! awk -v r="${refactor_rate}" -v ceil="${max_refactor_rate}" \
      'BEGIN { exit !(r + 0 <= ceil + 0) }'; then
      echo "check_budget: FAIL — ${refactor_rate} refactorizations per LP" \
           "solve exceeds ${max_refactor_rate} (Forrest–Tomlin updates or" \
           "the set-difference basis patch stopped absorbing pivots)" >&2
      exit 1
    fi
    echo "check_budget: OK — solver warm-restart health holds"
  fi
fi

# Solver parallel-scaling gate. The last line of BENCH_solver.json (the
# widest run of scripts/run_benches.sh's thread sweep) must report a
# >= 1.3x speedup over the serial baseline — but only on hardware that
# can express one: the solver.parallel.hw_concurrency gauge (falling
# back to nproc for snapshots predating the gauge) tells a single-core
# machine apart from a genuine scaling regression.
min_speedup=1.3
if [[ -z "${solver_line}" ]]; then
  echo "check_budget: SKIP solver speedup gate — ${solver_json} not found" \
       "(generate with scripts/run_benches.sh)"
else
  speedup="$(gauge "${solver_line}" solver.parallel.speedup)"
  hw="$(gauge "${solver_line}" solver.parallel.hw_concurrency)"
  [[ -n "${hw}" ]] || hw="$(nproc)"
  if [[ -z "${speedup}" ]]; then
    echo "check_budget: SKIP solver speedup gate — no solver.parallel.speedup" \
         "in ${solver_json}"
  elif awk -v hw="${hw}" 'BEGIN { exit !(hw + 0 < 2) }'; then
    echo "check_budget: SKIP solver speedup gate — hw_concurrency=${hw} < 2," \
         "parallel speedup is not measurable on this machine" \
         "(recorded speedup ${speedup}x)"
  else
    echo "check_budget: solver parallel speedup = ${speedup}x" \
         "(hw_concurrency=${hw}, floor ${min_speedup}x)"
    if awk -v s="${speedup}" -v floor="${min_speedup}" \
      'BEGIN { exit !(s + 0 >= floor + 0) }'; then
      echo "check_budget: OK — solver parallel scaling holds"
    else
      echo "check_budget: FAIL — solver parallel speedup ${speedup}x is below" \
           "${min_speedup}x on ${hw}-wide hardware (regression in the" \
           "wave-parallel search or the warm-basis path)" >&2
      exit 1
    fi
  fi
fi
