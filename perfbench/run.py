"""Benchmark of dirspec's batch CLI commands on seeded ISP-like maps.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

    sweep-isp      cluster-sweep --boundary degree-one on an 800-router map
    grow-isp       grow on a 1,000-router map
    tree-converge  tree-converge --degree 3 --max-levels 200 (no input; seed unused)
    gap-isp        gap --input on six 4,000-router maps

Successive sweep-isp calls cycle through twelve maps and grow-isp calls
through seven (perfbench/generate.py says why).

A run writes the seed's edge-list files under .bench_work/ before any timing.
It then starts one fresh interpreter (perfbench/worker.py), which imports
dirspec.cli and drives the workload's command through ``dirspec.cli.main``
as a closed loop with one caller, cycling through the workload's inputs,
until the next call would end after --seconds.  The first call warms the
machine up: its outputs are checked, but its time stays out of the medians,
because on the reference machine the first of a series of calls ran up to
30% slower than the rest, whatever it computed.  After the loop, SETUP_PROBES more fresh
interpreters only import dirspec.cli, and every call's CSVs are checked
against an independent oracle (perfbench/oracle.py, reference values cached
per input under .bench_cache/); the outputs are removed once all checks pass.

With --trace 0 the run reports:
    wall_s        median wall seconds of a cli.main call: time to a checked CSV
    setup_s       median time from starting a fresh interpreter until
                  dirspec.cli is imported, over the worker and the probes
    peak_rss_mib  peak resident memory of the worker process
and fail_frac (rows failing their check over rows attempted; a crash fails
every expected row), which is the result's failed/attempted.

With --trace 1 each call is made twice, untraced and then traced
(perfbench/layers.py), and the run reports the per-layer metrics of
PER_LAYER: calls, self seconds and errors of the package's public functions,
work counts, module self-time totals, and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The run exits with code 2 without a result
when the checkout has no dirspec sources under src/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import generate
import oracle
from layers import layer_stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 10
BUDGET_S = 170.0  # a run must end within 180 s, set-up and checks included

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]

_UNITS = {"calls": "count", "errors": "count", "self_s": "s", "rows": "count", "row_yield": "ratio"}


def _layer(function: str, *stats: str) -> list[tuple[str, str]]:
    return [(f"{function}.{s}", _UNITS.get(s, "s" if s.endswith("_s") else "count")) for s in stats]


PER_LAYER = [
    *_layer("spectral.smallest_eigenpairs", "calls", "self_s", "errors", "n_sum", "n_max", "nnz_sum"),
    *_layer("spectral.build_normalized_laplacian", "self_s"),
    *_layer("spectral.build_dirichlet_laplacian", "self_s"),
    *_layer("tree_spectrum.dirichlet_gap_analytic", "calls", "self_s"),
    *_layer("tree_spectrum.symmetric_family_roots", "calls", "self_s"),
    *_layer("graph.components", "calls", "self_s", "nodes_sum"),
    *_layer("graph.volume", "self_s"),
    *_layer("graph.edge_boundary", "self_s"),
    *_layer("cheeger.cheeger_ratio", "calls", "self_s"),
    *_layer("clustering.evaluate_cut", "calls", "self_s"),
    *_layer("clustering.reattach_boundary", "calls", "self_s"),
    *_layer("clustering.embed", "self_s"),
    *_layer("clustering.two_means", "self_s"),
    *_layer("clustering.rank_nodes", "self_s"),
    *_layer("clustering.sweep", "self_s", "rows", "row_yield"),
    *_layer("graph.one_median", "self_s"),
    *_layer("graph.ball", "calls", "self_s"),
    *_layer("graph.induced_subgraph", "calls", "self_s"),
    *_layer("graph.build_graph", "calls", "self_s"),
    *_layer("graph.resolve_boundary", "self_s"),
    *_layer("graph.eccentricity", "self_s"),
    *_layer("ingest.parse_edge_list", "calls", "self_s"),
    *_layer("ingest.write_csv", "self_s"),
    # module totals of self time; cli.self_s is the command's wall time
    # minus every wrapped function of the other modules
    *[(f"{m}.self_s", "s") for m in ("ingest", "graph", "spectral", "tree_spectrum", "cheeger", "clustering", "cli")],
    *_layer("cli", "cpu_s", "wall_s", "trace_overhead_s"),
]

CUT_EVALUATION = (
    "graph.components", "graph.volume", "graph.edge_boundary",
    "clustering.evaluate_cut", "clustering.reattach_boundary", "cheeger.cheeger_ratio",
)


def cli_argv(workload: str, inputs: list[str]) -> list[str]:
    """The workload's command line; the worker appends --out."""
    if workload == "sweep-isp":
        return ["cluster-sweep", "--boundary", "degree-one", "--input", *inputs]
    if workload == "grow-isp":
        return ["grow", "--input", *inputs]
    if workload == "tree-converge":
        return ["tree-converge", "--degree", "3", "--max-levels", "200"]
    return ["gap", "--input", *inputs]


def start_worker(job: dict, work: str, timeout: float) -> tuple[float, dict | None]:
    """Run one worker process; return its start time and result (None if it died)."""
    cmd = [sys.executable, WORKER, os.path.join(ROOT, "src"), json.dumps(job)]
    with open(os.path.join(work, "stderr.log"), "ab") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=log)
        try:
            proc.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return spawned, None
    try:
        with open(job["result"], encoding="utf-8") as f:
            return spawned, json.load(f)
    except (OSError, ValueError):
        return spawned, None


def failed_rows(check, out_dir: str, call: dict) -> int:
    """Rows of one call that fail their check; a call that exited non-zero
    or raised fails every row it should have written."""
    if call["rc"] != 0 or call["error"]:
        return check.expected_rows
    return check.failed_rows(out_dir, call)


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "samples": len(values)}


def layer_metrics(stats: dict, result: dict, overhead: float) -> dict[str, float]:
    values = {}
    for name, _unit in PER_LAYER:
        head, stat = name.rsplit(".", 1)
        if head == "cli" and stat in ("cpu_s", "wall_s"):
            values[name] = result[stat]
        elif name == "cli.trace_overhead_s":
            values[name] = overhead
        elif "." not in head:  # module total
            values[name] = sum(s["self_s"] for f, s in stats.items() if f.startswith(head + "."))
        elif stat == "row_yield":
            attempts = stats.get("clustering.reattach_boundary", {}).get("calls", 0)
            values[name] = stats.get(head, {}).get("rows", 0) / attempts if attempts else 0.0
        else:
            values[name] = stats.get(head, {}).get(stat, 0)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(oracle.ORACLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dirspec", "cli.py")):
        print(f"error: no dirspec sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    started = time.monotonic()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    input_sets = generate.workload_inputs(args.workload, args.seed, work)
    print("inputs", json.dumps([[generate.input_facts(p) for p in s] for s in input_sets]))

    def remaining() -> float:
        return BUDGET_S - (time.monotonic() - started)

    job = {
        "argvs": [cli_argv(args.workload, s) for s in input_sets],
        "work": work,
        "seconds": args.seconds,
        "budget_s": remaining() - 40,  # leaves time for set-up probes and checks
        "trace": args.trace,
        "sweep_report": oracle.SWEEP_REPORT if args.workload == "sweep-isp" else None,
        "env": True,
        "result": os.path.join(work, "result.json"),
    }
    spawned, res = start_worker(job, work, remaining())
    calls = res["calls"] if res else []
    setups = [res["imported_at"] - spawned] if res else []
    for i in range(SETUP_PROBES if not args.trace else 0):
        if remaining() < 30:
            break
        probe_job = {"setup_only": True, "result": os.path.join(work, f"probe{i}.json")}
        spawned, probe = start_worker(probe_job, work, remaining())
        if probe is not None:
            setups.append(probe["imported_at"] - spawned)

    # checks run after the measured calls, against each call's own outputs
    cache = os.path.join(ROOT, ".bench_cache")
    checks = {}
    attempted = failed = 0
    for call in calls:
        k = call["input"]
        if k not in checks:
            checks[k] = oracle.ORACLES[args.workload](input_sets[k], cache)
        attempted += checks[k].expected_rows
        failed += failed_rows(checks[k], call["out"], call)
    if res is None or not calls:  # the worker died: charge the first input's rows
        checks.setdefault(0, oracle.ORACLES[args.workload](input_sets[0], cache))
        attempted += checks[0].expected_rows
        failed += checks[0].expected_rows

    warmup = 2 if args.trace else 1
    measured = calls[warmup:] if len(calls) > warmup else calls
    walls = [c["wall_s"] for c in measured if not c["traced"]]
    traced_walls = [c["wall_s"] for c in measured if c["traced"]]
    rss = [max(c["peak_rss_kib"] for c in calls) / 1024] if calls else []
    layer_runs = []
    for c in measured:
        spans = os.path.join(c["out"], "spans.json")
        if c["traced"] and os.path.isfile(spans):
            with open(spans, encoding="utf-8") as f:
                layer_runs.append((layer_stats(json.load(f)), c))
    env = res.get("env") if res else None
    if failed == 0:  # keep the outputs of a failing run for inspection
        for c in calls:
            shutil.rmtree(c["out"], ignore_errors=True)

    print("env", json.dumps(env))
    fail_frac = failed / attempted if attempted else 1.0
    print(f"fail_frac {fail_frac} ratio ({failed} of {attempted} rows failed their check)")
    metrics: dict[str, dict] = {}
    if args.trace:
        overhead = statistics.median(traced_walls) - statistics.median(walls) if traced_walls and walls else 0.0
        per_run = [layer_metrics(s, r, overhead) for s, r in layer_runs]
        for name, unit in PER_LAYER:
            values = [m[name] for m in per_run] or [0]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        # shares of the traced calls' total wall time, so that they add up to 1
        total_wall = sum(c["wall_s"] for _, c in layer_runs) or 1.0
        groups = {m: (m + ".",) for m in ("ingest", "graph", "spectral", "tree_spectrum", "cheeger", "clustering", "cli")}
        groups["cut_evaluation"] = CUT_EVALUATION
        shares = {
            name: sum(s["self_s"] for stats, _ in layer_runs for f, s in stats.items() if f.startswith(prefixes))
            / total_wall
            for name, prefixes in groups.items()
        }
        print("self-time share of traced wall_s", json.dumps({k: round(v, 4) for k, v in shares.items()}))
    else:
        for name, unit in END_TO_END:
            values = {"wall_s": walls, "setup_s": setups, "peak_rss_mib": rss}[name] or [time.monotonic() - started]
            s = summary(values)
            print(f"{name} median {s['median']:.6g} {unit} (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, {s['samples']} samples)")
            print(f"  samples {' '.join(f'{v:.4g}' for v in values)}")
            metrics[name] = {"value": s["median"], "unit": unit}

    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
