"""Check that this checkout writes the same output files as revision REV.

Usage, from anywhere inside the repository:

    python3 tools/same_outputs.py REV

Exports REV with ``git archive`` into a temporary directory, writes the
seed-1 inputs of the benchmark workloads once (perfbench/generate.py), and
runs every workload's command on them in both trees: ``gap`` on the six
gap-isp maps, ``grow`` on each grow-isp map, ``cluster-sweep --emit-cuts`` on
each sweep-isp map and ``tree-converge --degree 3 --max-levels 200``.  It
adds calls on generated graphs and written edge files, one per path those
calls miss:

- ``cluster-sweep --emit-cuts`` on a whisker graph with a 7-fold degenerate
  eigenvalue, and on a grid with a ``--sizes`` filter;
- ``cluster-sweep`` on ``grid:10x10``, whose empty ``degree-one`` boundary
  makes the Dirichlet operator the traditional one;
- ``gap --input`` on three edge files it writes next to the workload inputs:
  one with CRLF line endings, a byte-order mark, comments, a duplicate edge
  and a self-loop, one with a malformed line and one that is not UTF-8; the
  last two exit with code 2;
- ``gap --input`` on two more files written there: ``isp_map(20000, 3)``,
  whose factors take the minimum-degree order with the hubs postponed, and
  two 12x12 grids joined by one edge between corners, with ``--boundary
  grid-perimeter``: the interior is two equal grids, the Dirichlet vector
  carries both signs, and the one-pair solve falls back to an inertia count;
- ``gap`` on ``grid:10x10``, whose empty boundary leaves the Dirichlet cell
  empty, on ``grid:1x2``, whose boundary covers every node and also leaves
  it empty, on a tree with ``--boundary leaves``, on a grid with
  ``--boundary grid-perimeter``, and on ``random:400x0.012 --seed 3`` with
  ``--boundary grid-perimeter``, whose 259-row interior has two components,
  so the Dirichlet factor takes the traditional order restricted to a split
  interior, and on ``tree:12x4`` with ``--boundary leaves``, whose hubs are
  too many rows (9%) to be postponed, so minimum degree orders all of it;
- ``grow`` on ``grid:12x12``, whose full ball has no stub and so leaves the
  Dirichlet cell empty, on ``grid:1x2``, a ball with no interior, and on
  ``tree:3x6``, whose leaves are parent stubs;
- ``gen`` on ``tree:3x6``, ``grid:12x12``, ``whisker:20x8x4`` and
  ``random:60x0.08 --seed 3``, whose ``graph.edges`` covers the edge-list
  writer on each generator;
- ``tree-converge`` with ``--degree 4 --max-levels 60`` and with
  ``--degree 10 --max-levels 300``, two more degrees with numeric cells, with
  ``--degree 50 --max-levels 3``, which has no numeric cell because
  ``tree:50x2`` has 2,501 nodes, and with ``--degree 3 --max-levels 1``, a
  single depth.

Each call writes into its own directory, with its exit code in the file
``rc``.  Every file is compared byte for byte; the script prints each file
that differs or exists on one side only and exits 1 if there is any, 0 if
there is none.  Everything it writes stays under one temporary directory,
which is removed at the end.  The working tree's side runs its files as they
are, uncommitted changes included.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
GENERATED = [
    ("whisker", ["cluster-sweep", "--gen", "whisker:20x8x4", "--emit-cuts"]),
    ("grid", ["cluster-sweep", "--gen", "grid:12x12", "--boundary", "grid-perimeter",
              "--sizes", "5,20,40", "--emit-cuts"]),
    ("sweep-empty-boundary", ["cluster-sweep", "--gen", "grid:10x10"]),
    ("gap-empty-boundary", ["gap", "--gen", "grid:10x10"]),
    ("gap-no-interior", ["gap", "--gen", "grid:1x2"]),
    ("gap-leaves", ["gap", "--gen", "tree:3x6", "--boundary", "leaves"]),
    ("gap-perimeter", ["gap", "--gen", "grid:30x30", "--boundary", "grid-perimeter"]),
    ("gap-split-interior", ["gap", "--gen", "random:400x0.012", "--seed", "3",
                            "--boundary", "grid-perimeter"]),
    ("gap-hub-share", ["gap", "--gen", "tree:12x4", "--boundary", "leaves"]),
    ("grow-full-ball", ["grow", "--gen", "grid:12x12"]),
    ("grow-no-interior", ["grow", "--gen", "grid:1x2"]),
    ("grow-leaves", ["grow", "--gen", "tree:3x6"]),
    ("gen-tree", ["gen", "tree:3x6"]),
    ("gen-grid", ["gen", "grid:12x12"]),
    ("gen-whisker", ["gen", "whisker:20x8x4"]),
    ("gen-random", ["gen", "random:60x0.08", "--seed", "3"]),
    ("tree-degree-4", ["tree-converge", "--degree", "4", "--max-levels", "60"]),
    ("tree-degree-10", ["tree-converge", "--degree", "10", "--max-levels", "300"]),
    ("tree-no-numeric", ["tree-converge", "--degree", "50", "--max-levels", "3"]),
    ("tree-one-depth", ["tree-converge", "--degree", "3", "--max-levels", "1"]),
]

# Edge files for the ``gap --input`` calls, by name.
PARSED = {
    "crlf-bom": "\ufeff# a ring with a tail\r\n1 2\r\n2 3\r\n\r\n3 4\r\n# chord\r\n"
    "4 1\r\n2 1\r\n3 3\r\n4 5\r\n".encode(),
    "malformed": b"1 2\n2 3\n3 1 4\n",
    "not-utf8": b"1 2\n2 \xff3\n",
}


def twin_grids() -> bytes:
    """Two 12x12 grids, labels a* and b*, joined by one edge between corners."""
    lines = [f"{g}{i}_{j} {g}{i + di}_{j + dj}\n"
             for g in "ab" for i in range(12) for j in range(12)
             for di, dj in ((0, 1), (1, 0)) if i + di < 12 and j + dj < 12]
    return "".join(lines + ["a11_11 b0_0\n"]).encode()


# Runs in a fresh interpreter per tree: argv[1] is the tree's src directory,
# argv[2] a JSON list of [out_dir, cli_argv] pairs.
DRIVER = """
import json, sys
sys.path.insert(0, sys.argv[1])
from dirspec.cli import main
for out, argv in json.loads(sys.argv[2]):
    rc = main([*argv, "--out", out])
    with open(out + "/rc", "w") as f:
        f.write(f"{rc}\\n")
"""


def jobs(inputs_dir: str) -> list[tuple[str, list[str]]]:
    """(name, argv) of every call; the workload inputs and PARSED files are written here."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from generate import isp_map, workload_inputs, write_edge_list
    from run import cli_argv

    found = []
    for workload in ("gap-isp", "grow-isp", "sweep-isp", "tree-converge"):
        for i, inputs in enumerate(workload_inputs(workload, SEED, inputs_dir)):
            argv = cli_argv(workload, inputs)
            if workload == "sweep-isp":
                argv.append("--emit-cuts")
            found.append((f"{workload}-{i}", argv))
    for name, data in PARSED.items():
        path = os.path.join(inputs_dir, f"{name}.edges")
        with open(path, "wb") as f:
            f.write(data)
        found.append((f"gap-parse-{name}", ["gap", "--input", path]))
    path = os.path.join(inputs_dir, "isp-20000-3.edges")
    write_edge_list(path, isp_map(20000, 3))
    found.append(("gap-isp-20000", ["gap", "--input", path]))
    path = os.path.join(inputs_dir, "twin-grids.edges")
    with open(path, "wb") as f:
        f.write(twin_grids())
    found.append(("gap-twin-grids", ["gap", "--input", path, "--boundary", "grid-perimeter"]))
    return found + GENERATED


def run_tree(src: str, out_root: str, calls: list[tuple[str, list[str]]]) -> None:
    pairs = []
    for name, argv in calls:
        out = os.path.join(out_root, name)
        os.makedirs(out)
        pairs.append([out, argv])
    subprocess.run(
        [sys.executable, "-c", DRIVER, src, json.dumps(pairs)], stdout=subprocess.DEVNULL, check=True
    )


def differing(a: str, b: str) -> list[str]:
    """Relative paths of the files that differ, or exist under one root only."""
    def files(root: str) -> set[str]:
        return {
            os.path.relpath(os.path.join(d, f), root) for d, _, names in os.walk(root) for f in names
        }

    in_a, in_b = files(a), files(b)
    same = {p for p in in_a & in_b if filecmp.cmp(os.path.join(a, p), os.path.join(b, p), shallow=False)}
    return sorted((in_a | in_b) - same)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        rev_tree = os.path.join(tmp, "rev")
        os.makedirs(rev_tree)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", args.rev], stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", rev_tree], stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or untar.returncode != 0:
            print(f"cannot export {args.rev!r}", file=sys.stderr)
            return 2
        inputs = os.path.join(tmp, "inputs")
        os.makedirs(inputs)
        calls = jobs(inputs)
        outs = {side: os.path.join(tmp, "out", side) for side in ("rev", "here")}
        run_tree(os.path.join(rev_tree, "src"), outs["rev"], calls)
        run_tree(os.path.join(ROOT, "src"), outs["here"], calls)
        diff = differing(outs["rev"], outs["here"])
        for path in diff:
            print(f"differs: {path}")
        compared = sum(len(files) for _, _, files in os.walk(outs["here"]))
        print(f"{len(diff)} of {compared} files differ from {args.rev} ({len(calls)} calls)")
        return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
