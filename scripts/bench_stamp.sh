# Provenance stamp shared by scripts/run_benches.sh and
# scripts/check_budget.sh. Source it once repo_root and build_dir are
# set. It sets hw_concurrency, generated_utc, git_sha, build_type and
# compiler, and defines `stamp_json FILE`, which injects them as the
# first keys of every JSON line in FILE — so a BENCH_*.json pulled off a
# shelf months later still says which commit, build and machine
# produced it. Downstream sed/grep consumers match with `.*` prefixes
# and are unaffected.
#
#   git_sha     HEAD as 12 hex digits, "-dirty" when tracked files
#               differ from it; "unknown" outside a git checkout
#   build_type  CMAKE_BUILD_TYPE from <build_dir>/CMakeCache.txt;
#               "unset" when empty (CMakeLists.txt then builds
#               RelWithDebInfo)
#   compiler    first line of the cached CMAKE_CXX_COMPILER's --version
#
# Every value is reduced to [A-Za-z0-9 ._+-], which is safe both inside
# the sed replacement below and inside a JSON string.

hw_concurrency="$(nproc)"
generated_utc="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

git_sha="$(git -C "${repo_root}" rev-parse --short=12 HEAD 2>/dev/null)" \
  || git_sha=""
if [[ -z "${git_sha}" ]]; then
  git_sha="unknown"
elif ! git -C "${repo_root}" diff --quiet HEAD -- 2>/dev/null; then
  git_sha="${git_sha}-dirty"
fi

# cmake_cache_value NAME: NAME's value in the build's CMakeCache.txt.
cmake_cache_value() {
  local cache="${build_dir}/CMakeCache.txt"
  [[ -f "${cache}" ]] || return 0
  sed -n "s/^$1:[A-Z]*=//p" "${cache}" | head -n 1
}

build_type="$(cmake_cache_value CMAKE_BUILD_TYPE | tr -cd 'A-Za-z0-9._+-')"
[[ -n "${build_type}" ]] || build_type="unset"

compiler=""
cxx="$(cmake_cache_value CMAKE_CXX_COMPILER)"
if [[ -n "${cxx}" && -x "${cxx}" ]]; then
  compiler="$({ "${cxx}" --version 2>/dev/null || true; } | head -n 1 \
    | tr -cd 'A-Za-z0-9 ._+-')" || compiler=""
fi
[[ -n "${compiler}" ]] || compiler="unknown"

stamp_json() {
  local file="$1"
  [[ -s "${file}" ]] || return 0
  local stamp="\"hw_concurrency\":${hw_concurrency}"
  stamp+=",\"generated_utc\":\"${generated_utc}\",\"git_sha\":\"${git_sha}\""
  stamp+=",\"build_type\":\"${build_type}\",\"compiler\":\"${compiler}\","
  sed -i "s/^{/{${stamp}/" "${file}"
}
