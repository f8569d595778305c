#!/usr/bin/env bash
# gprof profiling wrapper — the recipe used for the PR 1-4 hot-path work.
# The container has no perf or valgrind, so profiling is a -pg Release
# build + gprof flat profile. Builds into build-prof/ (separate cache so it
# never dirties the normal build trees), or into build-prof-e2e/ for
# `redn_bench`, the end-to-end benchmark, which is its own CMake project
# (bench/e2e). The binary is linked -static so libc's memmove/memset,
# malloc and the page-fault-heavy mmap path land in the flat profile by
# name; a dynamic -pg build (like the layer breakdown of
# `bench/e2e/run.py --trace 1`) cannot see time spent inside libc.
#
# Usage: scripts/profile.sh [bench_binary] [bench args...]
#   scripts/profile.sh                       # bench_simcore, default args
#   scripts/profile.sh bench_scale_fanout --quick
#   scripts/profile.sh redn_bench --workload kv_mixed --seconds 8
#
# Caveats:
#  - gprof attributes inlined callees to their caller; for per-line detail
#    rebuild with -fno-inline (distorts timings) or read the annotated
#    flat profile together with the source.
#  - Wall-clock on a shared multi-tenant VM is ±20% noisy: use the
#    *ranking*, not the absolute seconds, and confirm wins with interleaved
#    A/B runs of bench/e2e/run.py + compare.py (docs/PERF.md "Measuring").
set -euo pipefail

cd "$(dirname "$0")/.."

BENCH="${1:-bench_simcore}"
shift || true

SRC=.
BUILD=build-prof
if [[ "${BENCH}" == redn_bench ]]; then
  SRC=bench/e2e
  BUILD=build-prof-e2e
fi

cmake -B "${BUILD}" -S "${SRC}" -DCMAKE_BUILD_TYPE=Release \
  -DREDN_BUILD_TESTS=OFF -DREDN_BUILD_EXAMPLES=OFF -DREDN_LTO=OFF \
  -DCMAKE_CXX_FLAGS="-O2 -pg -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-pg -static" >/dev/null
cmake --build "${BUILD}" -j"$(nproc)" --target "${BENCH}"

# sed, unlike head, reads gprof's whole output, so gprof never dies of
# SIGPIPE and pipefail does not fail the script after the profile printed.
(cd "${BUILD}" &&
 ./"${BENCH}" "$@" >/dev/null &&
 gprof -b "./${BENCH}" gmon.out | sed -n '1,60p')
