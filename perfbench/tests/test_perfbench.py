"""Tests for the benchmark's own code: input generator, oracles, failure
accounting and the layer tracer.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH, SRC]

import generate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from layers import layer_stats  # noqa: E402

import dirspec.cli  # noqa: E402
import dirspec.clustering  # noqa: E402


def _write_map(tmp_path, n: int, seed: str) -> str:
    path = str(tmp_path / f"{seed}.edges")
    generate.write_edge_list(path, generate.isp_map(n, seed))
    return path


def _perturb(path: str, row: int, col: int) -> None:
    """Change one CSV cell by one unit in its 4th significant digit."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    cells = lines[row + 1].split(",")
    x = float(cells[col])
    cells[col] = f"{x + 10.0 ** (math.floor(math.log10(abs(x))) - 3):.6g}"
    lines[row + 1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _spawn_worker(tmp_path, argv: list[str], **job) -> list[dict]:
    """The calls of a worker loop on one input (a warm-up and one more)."""
    job = {"argvs": [argv], "work": str(tmp_path), "seconds": 0, "budget_s": 60,
           "result": str(tmp_path / "result.json"), **job}
    subprocess.run([sys.executable, run.WORKER, SRC, json.dumps(job)], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120)
    with open(job["result"], encoding="utf-8") as f:
        return json.load(f)["calls"]


@pytest.mark.parametrize("workload", ["sweep-isp", "grow-isp", "gap-isp"])
def test_generator_is_byte_identical_per_seed(tmp_path, workload):
    def files(seed: int, sub: str) -> list[bytes]:
        d = tmp_path / sub
        d.mkdir()
        out = []
        for paths in generate.workload_inputs(workload, seed, str(d)):
            for path in paths:
                with open(path, "rb") as f:
                    out.append(f.read())
        return out

    first, again, other = files(1, "a"), files(1, "b"), files(2, "c")
    assert first and first == again
    assert all(x != y for x, y in zip(first, other))


def test_grow_maps_have_the_fixed_median_eccentricity(tmp_path):
    path = generate.workload_inputs("grow-isp", 3, str(tmp_path))[0][0]
    _, adj, _ = oracle.read_edges(path)
    sums = [sum(oracle.bfs(adj, s).values()) for s in range(len(adj))]
    center = min(range(len(adj)), key=lambda v: (sums[v], v))
    assert max(oracle.bfs(adj, center).values()) == generate.GROW_ECCENTRICITY


def test_tree_oracle_catches_a_perturbed_cell(tmp_path):
    out = str(tmp_path / "out")
    assert dirspec.cli.main(["tree-converge", "--degree", "3", "--max-levels", "200", "--out", out]) == 0
    check = oracle.TreeOracle([], str(tmp_path))
    csv = os.path.join(out, "tree_converge.csv")
    assert check.failed_rows(out, {}) == 0
    _perturb(csv, row=4, col=2)  # a numeric cell
    assert check.failed_rows(out, {}) == 1
    _perturb(csv, row=150, col=1)  # an analytic cell
    assert check.failed_rows(out, {}) == 2


def test_grow_oracle_catches_a_perturbed_cell(tmp_path):
    path = _write_map(tmp_path, 300, "grow-test")
    out = str(tmp_path / "out")
    assert dirspec.cli.main(["grow", "--input", path, "--out", out]) == 0
    check = oracle.GrowOracle([path], str(tmp_path))
    assert check.expected_rows >= 3
    assert check.failed_rows(out, {}) == 0
    _perturb(os.path.join(out, "grow.csv"), row=1, col=3)
    assert check.failed_rows(out, {}) == 1


def test_gap_oracle_catches_a_perturbed_cell(tmp_path):
    paths = [_write_map(tmp_path, 400, f"gap-test-{i}") for i in range(2)]
    out = str(tmp_path / "out")
    assert dirspec.cli.main(["gap", "--input", *paths, "--out", out]) == 0
    check = oracle.GapOracle(paths, str(tmp_path))
    assert check.failed_rows(out, {}) == 0
    _perturb(os.path.join(out, "gap.csv"), row=1, col=3)
    assert check.failed_rows(out, {}) == 1


def _sweep_with_report(tmp_path) -> tuple[str, str]:
    """Run cluster-sweep in-process and write its report as the worker does."""
    path = _write_map(tmp_path, 150, "sweep-test")
    out = str(tmp_path / "out")
    with worker.sweep_capture(dirspec.clustering) as captured:
        assert dirspec.cli.main(["cluster-sweep", "--input", path, "--out", out]) == 0
    worker.write_sweep_report(os.path.join(out, oracle.SWEEP_REPORT), *captured[0])
    return path, out


def test_sweep_oracle_catches_a_perturbed_cell(tmp_path):
    path, out = _sweep_with_report(tmp_path)
    check = oracle.SweepOracle([path], str(tmp_path))
    size_rows = len(oracle.read_csv(os.path.join(out, "sweep_sizes.csv"))[1])
    assert check.expected_rows == size_rows + 1  # and the aggregate row
    assert check.failed_rows(out, {}) == 0
    _perturb(os.path.join(out, "sweep_sizes.csv"), row=5, col=1)
    assert check.failed_rows(out, {}) == 1
    _perturb(os.path.join(out, "sweep_sizes.csv"), row=6, col=3)  # a traditional cell
    assert check.failed_rows(out, {}) == 2
    _perturb(os.path.join(out, "sweep_aggregate.csv"), row=0, col=7)
    assert check.failed_rows(out, {}) == 3


@pytest.mark.parametrize("side", [0, 1], ids=["dirichlet", "traditional"])
def test_sweep_oracle_rejects_a_report_inconsistent_with_its_cut(tmp_path, side):
    path, out = _sweep_with_report(tmp_path)
    report_path = os.path.join(out, oracle.SWEEP_REPORT)
    with open(report_path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    cuts = json.loads(lines[4])
    cuts[side] = cuts[side][1:]  # the 4th row's cut no longer matches k, h or c
    lines[4] = json.dumps(cuts)
    with open(report_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    check = oracle.SweepOracle([path], str(tmp_path))
    assert check.failed_rows(out, {}) == 1


@pytest.mark.parametrize("field", ["h", "c"])
def test_sweep_oracle_catches_wrong_traditional_scores(tmp_path, monkeypatch, field):
    """A traditional evaluate_cut that is off in h's 4th significant digit, or
    by one component, writes a report and CSVs that agree with each other;
    every size row must still fail, and the aggregate built from them pass."""
    inner = dirspec.clustering.evaluate_cut

    def wrong(g, nodes, method):
        scored = inner(g, nodes, method)
        if method != "traditional":
            return scored
        if field == "h":
            return dataclasses.replace(scored, h=scored.h * (1 + 1e-3))
        return dataclasses.replace(scored, c=scored.c + 1)

    monkeypatch.setattr(dirspec.clustering, "evaluate_cut", wrong)
    path, out = _sweep_with_report(tmp_path)
    check = oracle.SweepOracle([path], str(tmp_path))
    assert check.failed_rows(out, {}) == check.expected_rows - 1


def test_nonzero_exit_fails_every_expected_row(tmp_path):
    (call,) = _spawn_worker(tmp_path, ["tree-converge", "--degree", "2", "--max-levels", "5"])
    assert call["rc"] == 1 and call["error"] is None  # the loop stops at the failed call
    check = oracle.TreeOracle([], str(tmp_path))
    assert run.failed_rows(check, call["out"], call) == check.expected_rows == oracle.TREE_LEVELS


def test_tracer_counts_calls_at_every_binding_site(tmp_path):
    path = _write_map(tmp_path, 150, "trace-test")
    calls = _spawn_worker(tmp_path, ["cluster-sweep", "--input", path], trace=1, sweep_report=oracle.SWEEP_REPORT)
    assert [c["traced"] for c in calls] == [False, True, False, True]
    assert all(c["rc"] == 0 for c in calls)
    # uninstall puts the originals back: untraced calls leave no spans
    assert not os.path.exists(os.path.join(calls[2]["out"], "spans.json"))
    with open(os.path.join(calls[3]["out"], "spans.json"), encoding="utf-8") as f:
        raw = json.load(f)
    stats = layer_stats(raw)
    with open(os.path.join(calls[3]["out"], oracle.SWEEP_REPORT), encoding="utf-8") as f:
        rows = len(json.loads(f.readline()))
    assert stats["clustering.sweep"]["rows"] == rows
    # evaluate_cut is called through clustering's own binding, cheeger_ratio
    # and components through clustering's imports, volume through cheeger's
    for name in ("clustering.evaluate_cut", "cheeger.cheeger_ratio", "graph.components", "graph.volume"):
        assert stats[name]["calls"] == 2 * rows, name
    assert stats["clustering.reattach_boundary"]["calls"] == rows
    assert stats["spectral.smallest_eigenpairs"]["calls"] == 2
    (root,) = [s for s in raw if s[3] == -1]
    assert root[0] == "cli.main"
    total_self = sum(s["self_s"] for s in stats.values())
    assert total_self == pytest.approx(root[2] - root[1], rel=1e-9)


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(oracle.ORACLES)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gap-isp", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
