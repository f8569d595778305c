#!/usr/bin/env bash
# A/B run of the repo benchmark: a base commit against the working tree.
#
# Extracts <base-commit> with `git archive` into a temporary tree, then
# runs `bench/e2e/run.py --workload W --seed S --out FILE` on the base and
# on the working tree for N pairs per workload, alternating which side goes
# first so drift on a shared host lands on both sides alike. Runs are one
# at a time. Each workload's pairs are then judged by bench/e2e/compare.py
# (the working tree's copy); the script prints each verdict table and exits
# non-zero when any comparison does (a failed check or op, or a regressed
# metric) or a run failed.
#
# Usage: scripts/ab.sh <base-commit> [--pairs N] [--seed S] [workload...]
#   scripts/ab.sh HEAD~1                      # all workloads, 10 pairs, seed 1
#   scripts/ab.sh 498e655 --pairs 12 chain_rings kv_get
#
# N is at least 10: a gain is claimed only when the change wins at least
# nine of ten pairs. Each run takes BENCHMARK.json's run_seconds plus its
# set-up, so the default takes about 2 x 10 x 4 x 20 s, roughly 30 min.
# The temporary tree sits under $TMPDIR (default /tmp) and is deleted at
# exit; the result files stay in the directory printed at the end.
set -euo pipefail

usage() {
  echo "usage: scripts/ab.sh <base-commit> [--pairs N] [--seed S] [workload...]" >&2
  exit 2
}

cd "$(dirname "$0")/.."
ROOT="$(pwd)"

[[ $# -ge 1 ]] || usage
BASE="$1"
shift
PAIRS=10
SEED=1
WORKLOADS=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --pairs) [[ $# -ge 2 ]] || usage; PAIRS="$2"; shift 2 ;;
    --seed) [[ $# -ge 2 ]] || usage; SEED="$2"; shift 2 ;;
    -*) usage ;;
    *) WORKLOADS+=("$1"); shift ;;
  esac
done
[[ "${PAIRS}" =~ ^[0-9]+$ && "${PAIRS}" -ge 10 ]] || {
  echo "--pairs must be an integer >= 10" >&2
  exit 2
}
[[ "${SEED}" =~ ^[0-9]+$ ]] || { echo "--seed must be an integer" >&2; exit 2; }
mapfile -t KNOWN < <(python3 -c \
  'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
if [[ ${#WORKLOADS[@]} -eq 0 ]]; then
  WORKLOADS=("${KNOWN[@]}")
fi
for w in "${WORKLOADS[@]}"; do
  [[ " ${KNOWN[*]} " == *" ${w} "* ]] || {
    echo "unknown workload ${w}; one of: ${KNOWN[*]}" >&2
    exit 2
  }
done

BASE_SHA="$(git rev-parse --verify "${BASE}^{commit}")"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/redn-ab.XXXXXX")"
BASE_TREE="${WORK}/base"
RESULTS="${WORK}/results"
trap 'rm -rf "${BASE_TREE}"' EXIT
mkdir -p "${BASE_TREE}" "${RESULTS}"
git archive "${BASE_SHA}" | tar -x -C "${BASE_TREE}"
echo "base ${BASE_SHA} in ${BASE_TREE}; results in ${RESULTS}" >&2

status=0
run() {  # run <side> <tree> <workload> <pair>
  local out="${RESULTS}/$3-$1-$(printf '%03d' "$4").json"
  echo "pair $4 $3: $1" >&2
  if ! python3 "$2/bench/e2e/run.py" --workload "$3" --seed "${SEED}" \
       --out "${out}" > "${out%.json}.log" 2>&1; then
    echo "run failed: $1 $3 pair $4 (see ${out%.json}.log)" >&2
    status=1
  fi
}

for ((i = 0; i < PAIRS; ++i)); do
  for w in "${WORKLOADS[@]}"; do
    if ((i % 2 == 0)); then
      run base "${BASE_TREE}" "${w}" "${i}"
      run change "${ROOT}" "${w}" "${i}"
    else
      run change "${ROOT}" "${w}" "${i}"
      run base "${BASE_TREE}" "${w}" "${i}"
    fi
  done
done

for w in "${WORKLOADS[@]}"; do
  echo "== ${w}: base ${BASE_SHA:0:12} vs working tree, ${PAIRS} pairs, seed ${SEED}"
  if ! python3 "${ROOT}/bench/e2e/compare.py" \
       --base "${RESULTS}/${w}"-base-*.json \
       --change "${RESULTS}/${w}"-change-*.json; then
    status=1
  fi
done
echo "results kept in ${RESULTS}" >&2
exit "${status}"
