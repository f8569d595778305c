#!/usr/bin/env bash
# gprof profiling wrapper — the recipe used for the PR 1-4 hot-path work.
# The container has no perf or valgrind, so profiling is a -pg Release
# build + gprof flat profile. Builds into build-prof/ (separate cache so it
# never dirties the normal build trees). The binary is linked -static so
# libc's memmove/memset, malloc and the page-fault-heavy mmap path land in
# the flat profile by name; a dynamic -pg build (like the layer breakdown
# of `bench/e2e/run.py --trace 1`) cannot see time spent inside libc.
#
# Usage: scripts/profile.sh [bench_binary] [bench args...]
#   scripts/profile.sh                       # bench_simcore, default args
#   scripts/profile.sh bench_scale_fanout --quick
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

cmake -B build-prof -S . -DCMAKE_BUILD_TYPE=Release \
  -DREDN_BUILD_TESTS=OFF -DREDN_BUILD_EXAMPLES=OFF -DREDN_LTO=OFF \
  -DCMAKE_CXX_FLAGS="-O2 -pg -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-pg -static" >/dev/null
cmake --build build-prof -j"$(nproc)" --target "${BENCH}"

(cd build-prof &&
 ./"${BENCH}" "$@" >/dev/null &&
 gprof -b "./${BENCH}" gmon.out | head -60)
