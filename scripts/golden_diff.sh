#!/usr/bin/env bash
# Diffs a bench's stdout against its committed golden, byte for byte. The
# benches print only simulated results, so any diff means simulated
# behaviour changed. With --record NAME only NAME's `JSON {...}` record is
# compared, with its events_per_sec (the one wall-clock field) removed.
# Fails too when the bench itself exits non-zero.
#
# Usage: scripts/golden_diff.sh [--record NAME] GOLDEN BENCH [ARGS...]
set -euo pipefail

record=""
if [[ "${1:-}" == "--record" ]]; then
  record="$2"
  shift 2
fi
golden="$1"
shift

if [[ -z "${record}" ]]; then
  "$@" | diff -u "${golden}" -
else
  "$@" | grep "\"bench\":\"${record}\"" \
    | sed -E 's/^JSON //; s/,"events_per_sec":[^,}]*//' \
    | diff -u "${golden}" -
fi
