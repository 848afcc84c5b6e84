#!/usr/bin/env bash
# The repository benchmark (bench/e2e/README.md). Run from the
# repository root: builds the tree in Release into build-bench/ with
# the harness target added by bench/e2e/targets.cmake, then runs
# emissary_bench with the given arguments, e.g.
#
#   bash bench/e2e/run.sh --workload fig5_exact --seed 0 --seconds 20 --trace 0
#   bash bench/e2e/run.sh --seed 1          # every workload in turn
#   bash bench/e2e/run.sh --smoke           # tiny windows, < 20 s
#
# Build output goes to stderr; the last stdout line is the result.
set -euo pipefail

if [[ ! -f CMakeLists.txt || ! -d src || ! -f bench/e2e/targets.cmake ]]; then
    echo "run.sh: run from the repository root (source tree not found)" >&2
    exit 2
fi

build=build-bench
if [[ ! -f $build/CMakeCache.txt ]]; then
    generator=()
    if command -v ninja >/dev/null 2>&1; then
        generator=(-G Ninja)
    fi
    cmake -S . -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_PROJECT_INCLUDE="$PWD/bench/e2e/targets.cmake" >&2
fi
cmake --build "$build" --target emissary_bench -j "$(nproc)" >&2

exec "$build/emissary_bench" "$@"
