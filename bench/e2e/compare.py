#!/usr/bin/env python3
"""Compares two sets of bench/e2e/run.py result files (stdlib only).

    python3 bench/e2e/compare.py --base build-bench/results/a*.json \\
                                 --change build-bench/results/b*.json

Files pair up in the order given: base[i] against change[i]. For every
(workload, metric) it prints each side's median and quartiles, the share
of pairs each side won, and, for the BENCHMARK.json end_to_end metrics, a
verdict under that file's bounds:

  improved    the change wins >= 90% of pairs, its median is better by more
              than the base's quartile spread, and no more ops failed
  regressed   the change's median is worse than the base's by more than
              the bound
  unresolved  the base's spread (IQR / median) is wider than the bound and
              not every change run beats every base run
  unchanged   otherwise

It also lists simulated fields that differ between runs of the same
(workload, seed), which a pure performance change must not do. Exits 1
when any run failed a check or counted a failed op, or a metric regressed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def verdict(base, change, sign, bound, win_share, more_failures):
    mb, mc = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    if win_share >= 0.9 and sign * (mc - mb) > q3 - q1 and not more_failures:
        return "improved"
    if sign * (mc - mb) < -bound * abs(mb):
        return "regressed"
    all_better = all(sign * c > sign * b for b in base for c in change)
    if mb and (q3 - q1) / abs(mb) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    sides = {s: [json.loads(Path(p).read_text()) for p in paths]
             for s, paths in (("base", args.base), ("change", args.change))}

    bad = False
    failed = {"base": {}, "change": {}}
    for side, runs in sides.items():
        for run in runs:
            for w, r in run["workloads"].items():
                failed[side][w] = failed[side].get(w, 0) + r["failed"]
                if not r["correct"] or r["failed"]:
                    print(f"FAIL {side} {w} seed {run['seed']}: correct="
                          f"{r['correct']} failed={r['failed']}/"
                          f"{r['attempted']}")
                    bad = True

    workloads = sorted({w for runs in sides.values() for run in runs
                        for w in run["workloads"]})
    print(f"{'workload':13} {'metric':28} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won b/c':>9}  verdict")
    for w in workloads:
        names = []
        for run in sides["base"] + sides["change"]:
            for k in run["workloads"].get(w, {}).get("metrics", {}):
                if k not in names:
                    names.append(k)
        for name in names:
            vals = {s: [run["workloads"][w]["metrics"][name]["value"]
                        for run in runs if w in run["workloads"]
                        and name in run["workloads"][w]["metrics"]]
                    for s, runs in sides.items()}
            if not vals["base"] or not vals["change"]:
                continue
            sign = 1 if better.get(name) == "higher" else -1
            pairs = list(zip(vals["base"], vals["change"]))
            won_c = sum(sign * (c - b) > 0 for b, c in pairs) / len(pairs)
            won_b = sum(sign * (c - b) < 0 for b, c in pairs) / len(pairs)
            cells = []
            for s in ("base", "change"):
                q1, q3 = quartiles(vals[s])
                cells.append(f"{statistics.median(vals[s]):.6g} "
                             f"[{q1:.6g}, {q3:.6g}]")
            v = "-"
            if name in bounds:
                v = verdict(vals["base"], vals["change"], sign, bounds[name],
                            won_c,
                            failed["change"].get(w, 0) >
                            failed["base"].get(w, 0))
                bad |= v == "regressed"
            print(f"{w:13} {name:28} {cells[0]:>34} {cells[1]:>34} "
                  f"{f'{won_b:.0%}/{won_c:.0%}':>9}  {v}")

    first, diffs = {}, []
    for runs in sides.values():
        for run in runs:
            for w, r in run["workloads"].items():
                ref = first.setdefault((w, run["seed"], run["smoke"]), r["sim"])
                fields = sorted(k for k in ref.keys() | r["sim"].keys()
                                if ref.get(k) != r["sim"].get(k))
                if fields:
                    diffs.append(f"{w} seed {run['seed']}: {', '.join(fields)}")
    print("simulated fields differ between same-seed runs:\n  " +
          "\n  ".join(sorted(set(diffs))) if diffs else
          "simulated fields identical across same-seed runs")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
