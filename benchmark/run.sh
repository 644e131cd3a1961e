#!/usr/bin/env bash
# The repo benchmark's one command: builds the runner into build-bench/
# (library sources from ../src, RelWithDebInfo) and hands every argument
# to bench.py. Build output goes to stderr so the last line of stdout is
# the result object.
#
#   benchmark/run.sh [--workload NAME]... [--seed S] [--repeats N]
#                    [--seconds S] [--trace 0|1|FILE] [--json OUT]
#                    [--history LABEL] [--write-golden] [--selftest]
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/build-bench"
jobs=$(nproc)

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
cmake --build "$build" --target pacc_bench -j "$jobs" >&2

exec python3 "$here/bench.py" --runner "$build/pacc_bench" --build "$build" "$@"
