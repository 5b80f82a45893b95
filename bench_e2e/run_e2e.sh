#!/usr/bin/env bash
# Runs one workload of the end-to-end benchmark, building bench_e2e from
# the sources of the checkout this script sits in on first use (later
# runs rebuild only what changed):
#
#   bash bench_e2e/run_e2e.sh --workload mixed-100 [--seed 7] \
#       [--seconds 10] [--trace 0|1]
#
# Build output goes to .bench_build/e2e/build.log and Chrome traces of
# --trace 1 runs to .bench_build/traces/. The last line on stdout is the
# benchmark's JSON result; see README.md next to this script.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/.bench_build/e2e"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
    echo "run_e2e.sh: no repository sources around $bench_dir" >&2
    exit 2
fi

jobs="$(nproc 2>/dev/null || echo 1)"
if (( jobs > 4 )); then
    jobs=4
fi
mkdir -p "$build"
if ! {
    if [[ ! -f "$build/CMakeCache.txt" ]]; then
        cmake -S "$bench_dir" -B "$build" -DCMAKE_BUILD_TYPE=Release
    fi
    cmake --build "$build" --target bench_e2e -j "$jobs"
} > "$build/build.log" 2>&1; then
    tail -n 40 "$build/build.log" >&2
    echo "run_e2e.sh: build failed (log: $build/build.log)" >&2
    exit 1
fi

cd "$root"
exec "$build/bench_e2e" --trace-dir "$root/.bench_build/traces" "$@"
