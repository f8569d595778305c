#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (stdlib only).

    python3 bench/e2e/run.py --workload kv_get --seed 1 --seconds 16 --trace 0
    python3 bench/e2e/run.py                    # all four workloads
    python3 bench/e2e/run.py --smoke            # all four at 1/20 size
    python3 bench/e2e/run.py --trace 1          # per-layer breakdown

Each workload runs in its own redn_bench process (bench/e2e/redn_bench.cc),
single-threaded. Every metric is printed as
`<workload> <metric> <value> <unit> n=<samples>`, the results go to one JSON
file (--out, default under build-bench/results/), and with --workload the
last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
BENCHMARK.json end_to_end metrics; --trace 1 reports its per_layer metrics,
from an extra gprof build (build-bench-traced: -pg, no LTO) plus the
untraced build's counters and set-up probes. A per_layer metric the
workload does not report reads -1. The exit status is non-zero when a
check failed or the program could not be built.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-bench"
TRACED_BUILD = ROOT / "build-bench-traced"
LAYERS = ["sim", "fabric", "transport", "rnic", "verbs", "core", "offloads",
          "kv", "workload", "other"]
SMOKE_SCALE = 0.05


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(tree, extra):
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(tree),
                 "-DCMAKE_BUILD_TYPE=Release"] + extra,
                ["cmake", "--build", str(tree), "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit(f"build failed: {' '.join(cmd)}")
    return tree / "redn_bench"


def run_bench(binary, args, cwd):
    """Runs redn_bench; returns (exit status, its result object)."""
    proc = subprocess.run([str(binary)] + args, cwd=cwd, text=True,
                          stdout=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{binary.name} {' '.join(args)} printed no result "
                 f"(exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-1])


# --- gprof flat profile -> layers --------------------------------------------
FLAT_ROW = re.compile(r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+"
                      r"(?:(\d+)\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")
MENTION = re.compile(r"\bredn_e2e::|\bredn::(\w+)::(\w*)")


def layer_of(symbol):
    """Charges a symbol to the first namespace it names.

    A sim::BindEvent<F> thunk is charged to F. Inside sim, Transport* counts
    as transport and Fabric / *Resource as fabric. The benchmark's own code
    (redn_e2e) counts as workload; a symbol naming no redn namespace (libc,
    libstdc++) is other."""
    bind = symbol.find("redn::sim::BindEvent<")
    if bind >= 0:
        symbol = symbol[bind + len("redn::sim::BindEvent<"):]
    m = MENTION.search(symbol)
    if m is None:
        return "other"
    if m.group(1) is None:
        return "workload"
    ns, ident = m.group(1), m.group(2)
    if ns == "sim":
        if ident.startswith("Transport"):
            return "transport"
        if ident == "Fabric" or ident.endswith("Resource"):
            return "fabric"
    return ns if ns in LAYERS else "other"


def gprof_layers(binary, tree, reps):
    out = subprocess.run(["gprof", "-b", "-p", str(binary), "gmon.out"],
                         cwd=tree, text=True, stdout=subprocess.PIPE,
                         check=True).stdout
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for line in out.splitlines():
        m = FLAT_ROW.match(line)
        if m is None:
            continue
        layer = layer_of(m.group(5))
        self_s[layer] += float(m.group(3))
        calls[layer] += int(m.group(4) or 0)
    total = sum(self_s.values())
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer] / reps
        metrics[f"{layer}.self_frac"] = self_s[layer] / total if total else -1
        metrics[f"{layer}.calls"] = calls[layer] / reps
    return metrics


# --- one workload ------------------------------------------------------------
def end_to_end(res):
    sim = res["sim"]
    reps = len(res["wall_s"])
    return {
        "ops_per_wall_s": (statistics.median(res["ops"] / w
                                             for w in res["wall_s"]), reps),
        "setup_s": (statistics.median(res["setup_s"]), reps),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
        "sim_ops_per_s": (sim["sim_ops_per_s"], res["ops"]),
        "sim_lat_p50": (sim["sim_lat_p50"], sim["latency_samples"]),
        "sim_lat_p99": (sim["sim_lat_p99"], sim["latency_samples"]),
        "sim_lat_p999": (sim["sim_lat_p999"], sim["latency_samples"]),
    }


def per_layer(res, traced, gprof):
    reps = len(res["wall_s"])
    values = {k: (v, 1) for k, v in res["sim"].items()}
    values.update({k: (v, 1) for k, v in res["probes"].items()})
    values.update({k: (v, len(traced["wall_s"]) + 1)
                   for k, v in gprof.items()})
    wall = statistics.median(res["wall_s"])
    values["sim.wall_ns_per_event"] = (
        1e9 * wall / res["sim"]["sim.events"], reps)
    values["trace.overhead"] = (statistics.median(traced["wall_s"]) / wall,
                                reps)
    return values


def run_workload(name, args, spec, binaries):
    common = ["--workload", name, "--seed", str(args.seed)]
    if args.smoke:
        common += ["--scale", str(SMOKE_SCALE), "--min-reps", "1"]
    seconds = 0 if args.smoke else args.seconds
    if not args.trace:
        status, res = run_bench(binaries[0], common + ["--seconds",
                                                       str(seconds)], ROOT)
        results, values = [res], end_to_end(res)
        wanted = spec["end_to_end"]
        problems = list(res["problems"])
    else:
        spans = BUILD / f"spans-{name}-seed{args.seed}.json"
        status, res = run_bench(binaries[0], common + [
            "--seconds", str(seconds / 2), "--probes", "--spans", str(spans)],
            ROOT)
        tree = TRACED_BUILD
        (tree / "gmon.out").unlink(missing_ok=True)
        tstatus, traced = run_bench(binaries[1], common + [
            "--seconds", str(seconds / 2)], tree)
        status = status or tstatus
        results = [res, traced]
        values = per_layer(res, traced,
                           gprof_layers(binaries[1], tree,
                                        len(traced["wall_s"]) + 1))
        wanted = spec["per_layer"]
        problems = res["problems"] + traced["problems"]
        if res["sim"] != traced["sim"]:
            problems.append("simulated fields differ between the traced "
                            "and the untraced build")
        log(f"{name}: spans written to {spans}")
    metrics = {}
    for m in wanted:
        value, n = values.get(m["name"], (-1, 0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"], "n": n}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for p in problems:
        log(f"{name}: CHECK FAILED: {p}")
    return {
        "correct": status == 0 and not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "sim": res["sim"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured time per workload (default: BENCHMARK.json "
                    "run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="1/20-size workloads, one measured rep each")
    ap.add_argument("--out", type=Path, help="result JSON file")
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"no redn sources at {ROOT}: run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        sys.exit(f"unknown workload {args.workload!r}; one of {names}")

    binaries = [build(BUILD, [])]
    if args.trace:
        binaries.append(build(TRACED_BUILD, [
            "-DREDN_LTO=OFF",
            "-DCMAKE_CXX_FLAGS=-O2 -pg -fno-omit-frame-pointer",
            "-DCMAKE_EXE_LINKER_FLAGS=-pg"]))

    results = {}
    for name in [args.workload] if args.workload else names:
        r = run_workload(name, args, spec, binaries)
        results[name] = r
        for metric, m in r["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']} n={m['n']}")
        print(f"{name} fail_frac {r['failed'] / max(r['attempted'], 1):.6g} "
              f"frac n={r['attempted']}")

    out = args.out or (BUILD / "results" / time.strftime(
        f"%Y%m%d-%H%M%S-{os.getpid()}-seed{args.seed}-trace{args.trace}.json"))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "trace": args.trace,
                               "smoke": args.smoke, "workloads": results},
                              indent=1) + "\n")
    log(f"results written to {out}")
    ok = all(r["correct"] for r in results.values())
    if args.workload:
        r = results[args.workload]
        print(json.dumps({
            "correct": r["correct"], "attempted": r["attempted"],
            "failed": r["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in r["metrics"].items()}}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
