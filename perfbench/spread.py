"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 [--workloads sweep-isp,grow-isp] [--out FILE]

Runs ``run.py --trace 0`` once per workload and seed, one run at a time,
taking the workloads in turn for each seed, so that a slow spell of a shared
machine falls on all of them rather than on one.  It reports for each metric
the median of the runs, their quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the distance between the
quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json.  Then one ``--trace 1`` run per workload, on the first seed,
gives its per-layer metrics and each module's share of the traced wall time.
With --out it also writes these figures as JSON, together with the
environment and input facts that the runs printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHARES = "self-time share of traced wall_s "


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
    lines = proc.stdout.splitlines()
    facts = {}
    for line in lines[:-1]:
        if line.startswith(SHARES):
            facts["shares"] = json.loads(line[len(SHARES):])
        key, _, rest = line.partition(" ")
        if key in ("inputs", "env"):
            facts[key] = json.loads(rest)
    return json.loads(lines[-1]), facts


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    seeds = seed_list(args.seeds)
    values = {w: {name: [] for name in bounds} for w in workloads}
    rows = {w: {"failed": 0, "attempted": 0, "inputs": {}, "metrics": {}} for w in workloads}
    report = {"workloads": rows}
    for seed in seeds:
        for workload in workloads:
            result, facts = run_once(workload, seed, bench["run_seconds"])
            report["env"] = facts.get("env")
            row = rows[workload]
            row["inputs"][seed] = facts.get("inputs")
            row["failed"] += result["failed"]
            row["attempted"] += result["attempted"]
            for name in bounds:
                values[workload][name].append(result["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values[workload].items()}, flush=True)
    for workload in workloads:
        row = rows[workload]
        for name, vals in values[workload].items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            row["metrics"][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[name], "values": vals,
            }
            print(f"{workload:14s} {name:13s} median {median:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  "
                  f"spread {spread:.3f} (bound {bounds[name]})", flush=True)
        print(f"{workload:14s} fail_frac {row['failed'] / row['attempted']} "
              f"({row['failed']} of {row['attempted']} rows)", flush=True)
    for workload in workloads:
        traced, facts = run_once(workload, seeds[0], bench["run_seconds"], trace=1)
        rows[workload]["traced"] = {
            "correct": traced["correct"],
            "shares": facts.get("shares"),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"{workload:14s} traced shares {facts.get('shares')}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
