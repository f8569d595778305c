#!/usr/bin/env bash
# Line coverage of src/, split by who reaches it: the traffic (the repo
# benchmark, the paper and scale benches, the examples) or only the tests.
#
# Builds two --coverage Debug trees under build-cov/ (the root project and
# the bench/e2e benchmark, which is its own CMake project), then runs:
#   1. the four bench/e2e workloads at 1/20 size (run.py --smoke's size),
#      seeds 1 and 7;
#   2. every paper bench (as its ctest golden runs it) and every scale
#      bench with the arguments scripts/ci.sh passes;
#   3. every example;
# snapshots the counters, then runs ctest. For each src/ file it prints
# the lines nothing ran and the lines only ctest ran, read from gcov's JSON
# output with the python3 standard library. A change to error, heal or
# set-up paths can check here whether anything beyond the tests and the
# byte-identity records exercises it. Takes 3 to 5 minutes; not part of
# scripts/ci.sh.
#
# Usage: scripts/coverage.sh
set -euo pipefail

cd "$(dirname "$0")/.."

ROOT_TREE=build-cov/root
E2E_TREE=build-cov/e2e
COV_FLAGS=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS=--coverage
           -DCMAKE_EXE_LINKER_FLAGS=--coverage)

echo "=== building ${ROOT_TREE} and ${E2E_TREE} ===" >&2
cmake -B "${ROOT_TREE}" -S . "${COV_FLAGS[@]}" >/dev/null
cmake --build "${ROOT_TREE}" -j"$(nproc)" >/dev/null
cmake -B "${E2E_TREE}" -S bench/e2e "${COV_FLAGS[@]}" >/dev/null
cmake --build "${E2E_TREE}" -j"$(nproc)" >/dev/null
# Counters from an earlier run would blur the split.
find build-cov -name '*.gcda' -delete

quiet() { "$@" >/dev/null; }

echo "=== traffic: bench/e2e workloads ===" >&2
for w in chain_rings kv_get lossy_fabric kv_mixed; do
  for seed in 1 7; do
    quiet "${E2E_TREE}/redn_bench" --workload "${w}" --seed "${seed}" \
      --scale 0.05 --min-reps 1 --seconds 0
  done
done

echo "=== traffic: paper and scale benches ===" >&2
B="${ROOT_TREE}"
for golden in tests/golden/*.golden; do
  quiet "${B}/$(basename "${golden}" .golden)"
done
quiet "${B}/bench_simcore" --quick
quiet "${B}/bench_scale_fanout" --quick
quiet "${B}/bench_scale_fanout" --shards 4 --tenants 8
quiet "${B}/bench_scale_netfabric" --quick
quiet "${B}/bench_scale_netfabric" --quick --shards 2
quiet "${B}/bench_scale_lossy" --quick
quiet "${B}/bench_scale_lossy" --quick --shards 2
for seed in 1 2 3; do
  quiet "${B}/bench_scale_failover" --quick --seed "${seed}"
  quiet "${B}/bench_scale_recovery" --quick --seed "${seed}"
  quiet "${B}/bench_scale_recovery" --ops 1000 --seed "${seed}"
done
quiet "${B}/bench_scale_recovery" --quick --sim-shards 2

echo "=== traffic: examples ===" >&2
for ex in "${B}"/example_*; do
  quiet "${ex}"
done

# Prints one JSON line per gcov report ({"files": [...]}) for every counter
# file in the given trees.
gcov_json() {
  find "$@" -name '*.gcda' -print0 |
    xargs -0 -n 64 gcov --json-format --stdout 2>/dev/null
}

gcov_json "${ROOT_TREE}" "${E2E_TREE}" > build-cov/traffic.jsonl

echo "=== ctest ===" >&2
(cd "${ROOT_TREE}" && ctest -j"$(nproc)" --output-on-failure >/dev/null)
gcov_json "${ROOT_TREE}" "${E2E_TREE}" > build-cov/all.jsonl

python3 - "$(pwd)" build-cov/traffic.jsonl build-cov/all.jsonl <<'EOF'
import json
import os
import sys

root, traffic_path, all_path = sys.argv[1:4]
src = os.path.join(root, "src") + os.sep


def executed(path):
    """{src file: {line: ran}} over every report in `path`."""
    lines = {}
    with open(path) as f:
        for doc in f:
            if not doc.strip():
                continue
            report = json.loads(doc)
            cwd = report.get("current_working_directory", root)
            for entry in report["files"]:
                name = os.path.normpath(os.path.join(cwd, entry["file"]))
                if not name.startswith(src):
                    continue
                seen = lines.setdefault(os.path.relpath(name, root), {})
                for ln in entry["lines"]:
                    n = ln["line_number"]
                    seen[n] = seen.get(n, False) or ln["count"] > 0
    return lines


def spans(nums):
    runs = []
    for n in sorted(nums):
        if runs and runs[-1][1] == n - 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


traffic = executed(traffic_path)
everything = executed(all_path)
print("file: lines nothing ran | lines only ctest ran")
for name in sorted(everything):
    lines = everything[name]
    never = [n for n, ran in lines.items() if not ran]
    only_ctest = [n for n, ran in lines.items()
                  if ran and not traffic.get(name, {}).get(n, False)]
    if not never and not only_ctest:
        continue
    print(f"{name}: {len(never)} never [{spans(never)}] | "
          f"{len(only_ctest)} only ctest [{spans(only_ctest)}]")
EOF
