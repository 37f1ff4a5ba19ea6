"""Command-line front end producing deterministic, plot-ready CSV files.

Subcommands:
  gen            write a generated graph as a canonical edge list
  gap            traditional and boundary-conditioned spectral gaps per graph
  tree-converge  analytic (and, where feasible, numeric) tree gaps by depth
  grow           gaps of radius-grown subgraphs around the graph's 1-median
  cluster-sweep  full cut-size sweep comparing the two clustering methods

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
All outputs land under --out with fixed file names; rerunning a command with
identical inputs, flags, and seed reproduces the files byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import clustering, ingest
from .errors import DataError, NumericalError
from .graph import (
    BOUNDARY_POLICIES,
    Graph,
    distances_from,
    largest_component,
    one_median,
    radius_cut,
    resolve_boundary,
)
from .ingest import write_columns, write_csv, write_edges, write_graph
from .spectral import (
    _restrict,
    build_normalized_laplacian,
    check_tolerance,
    gaps,
    smallest_eigenpairs,
)
from .tree_spectrum import dirichlet_gap_analytic

NUMERIC_TREE_LIMIT = 2048


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise UsageError(message)


def parse_generator_spec(spec: str, seed: int = 0) -> Graph:
    """Build a graph from a spec string: tree:DxL, grid:RxC, whisker:KxWxL, random:NxP."""
    try:
        kind, _, rest = spec.partition(":")
        parts = rest.split("x")
        if kind == "tree":
            d, depth = (int(p) for p in parts)
            return ingest.gen_tree(d, depth)
        if kind == "grid":
            rows, cols = (int(p) for p in parts)
            return ingest.gen_grid(rows, cols)
        if kind == "whisker":
            core, count, length = (int(p) for p in parts)
            return ingest.gen_whisker(core, count, length)
        if kind == "random":
            n, p = parts
            return ingest.gen_random_connected(int(n), float(p), seed)
    except (ValueError, TypeError) as e:
        raise UsageError(f"bad generator spec {spec!r}: {e}") from e
    raise UsageError(f"bad generator spec {spec!r}: unknown kind")


def _load_graph(args, path: str | None) -> Graph:
    """The graph of the edge-list file ``path``, or of ``--gen`` when it is None,
    reduced to its largest component."""
    if path is not None:
        g = ingest.parse_edge_list(path)
    else:
        g = parse_generator_spec(args.gen, args.seed)
    largest = largest_component(g)
    if largest is not g:
        print("note: input disconnected; using largest component", file=sys.stderr)
    return largest


def _outpath(args, name: str) -> str:
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as e:
        raise DataError(f"cannot write {args.out}: {e}") from e
    return os.path.join(args.out, name)


def cmd_gen(args) -> int:
    g = parse_generator_spec(args.spec, args.seed)
    path = _outpath(args, "graph.edges")
    write_graph(g, path)
    print(f"wrote {path} ({g.node_count} nodes, {g.edge_count} edges)")
    return 0


def cmd_gap(args) -> int:
    rows = []
    for src in args.input or [None]:
        g = _load_graph(args, src)
        boundary = resolve_boundary(g, args.boundary)
        rows.append((g.node_count, g.edge_count, boundary.size, *gaps(g, boundary, tol=args.tol)))
    path = _outpath(args, "gap.csv")
    write_csv(path, ("n", "m", "boundary_size", "traditional_gap", "dirichlet_gap"), rows)
    print(f"wrote {path}")
    return 0


def cmd_tree_converge(args) -> int:
    check_tolerance(args.tol)  # no numeric solve runs when every tree is too large
    if args.degree < 3:
        raise UsageError("tree-converge requires --degree >= 3")
    if not 1 <= args.max_levels <= ingest.SIZE_GUARD:
        raise UsageError(f"tree-converge requires 1 <= --max-levels <= {ingest.SIZE_GUARD}")
    depths = np.arange(1, args.max_levels + 1)
    analytic = dirichlet_gap_analytic(args.degree, depths)
    numeric = [None] * args.max_levels
    deepest = 0
    while (
        deepest < args.max_levels
        and ingest.tree_node_count(args.degree, deepest + 2) <= NUMERIC_TREE_LIMIT
    ):
        deepest += 1
    if deepest:
        # gen_tree numbers nodes level by level and an interior node has degree d
        # in every deeper tree, so the Dirichlet operator of leaves at depth L+1
        # is the leading block on the ids below tree_node_count(d, L)
        lap = build_normalized_laplacian(ingest.gen_tree(args.degree, deepest + 1))
        for levels in range(1, deepest + 1):
            inner = _restrict(lap, np.arange(ingest.tree_node_count(args.degree, levels)))
            res = smallest_eigenpairs(inner, k=1, tol=args.tol)
            numeric[levels - 1] = float(res.eigenvalues[0])
    path = _outpath(args, "tree_converge.csv")
    columns = (depths.tolist(), analytic.tolist(), numeric)
    write_columns(path, ("L", "analytic_gap", "numeric_gap"), columns)
    print(f"wrote {path}")
    return 0


def cmd_grow(args) -> int:
    check_tolerance(args.tol)
    g = _load_graph(args, args.input)
    dist = distances_from(g, one_median(g))
    rows = []
    for radius in range(1, int(dist.max()) + 1):
        sub, boundary = radius_cut(g, np.flatnonzero(dist <= radius))
        rows.append((radius, sub.node_count, *gaps(sub, boundary, tol=args.tol)))
    path = _outpath(args, "grow.csv")
    write_csv(path, ("r", "n_sub", "traditional_gap", "dirichlet_gap"), rows)
    print(f"wrote {path}")
    return 0


def cmd_cluster_sweep(args) -> int:
    sizes = None
    if args.sizes is not None:
        try:
            sizes = [int(s) for s in args.sizes.split(",") if s]
        except ValueError as e:
            raise UsageError(f"bad --sizes list: {e}") from e
        if not sizes or min(sizes) < 1:
            raise UsageError(f"bad --sizes list {args.sizes!r}: need sizes of at least 1")
    g = _load_graph(args, args.input)
    boundary = resolve_boundary(g, args.boundary)
    if boundary.size == 0:  # no CSV cell would say it
        print("note: empty boundary; Dirichlet operator is the traditional one", file=sys.stderr)
    report = clustering.sweep(g, boundary, tol=args.tol, sizes=sizes)
    sizes_path = _outpath(args, "sweep_sizes.csv")
    write_csv(sizes_path, clustering.SIZES_HEADER, clustering.size_rows(report))
    agg_path = _outpath(args, "sweep_aggregate.csv")
    write_csv(agg_path, clustering.AGGREGATE_HEADER, [clustering.aggregate_row(report)])
    if args.emit_cuts:
        eu, ev = g.edge_arrays  # u ascending, then v
        for row, cut in zip(report.rows, report.dirichlet_cuts):
            inset = g.node_mask(cut, allow_empty=True)
            keep = inset[eu] & inset[ev]
            write_edges(g, eu[keep], ev[keep], _outpath(args, f"cut_{row.k}.edges"))
    print(f"wrote {sizes_path} and {agg_path}")
    return 0


def _add_common(p: argparse.ArgumentParser, with_boundary: bool = True) -> None:
    p.add_argument("--tol", type=float, default=1e-8, help="eigensolver tolerance")
    p.add_argument("--out", default=".", help="output directory")
    if with_boundary:
        p.add_argument("--boundary", choices=BOUNDARY_POLICIES, default="degree-one")


def _add_source(p: argparse.ArgumentParser, multiple: bool = False) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--input",
        nargs="+" if multiple else None,
        metavar="EDGELIST",
        help="edge-list file(s)" if multiple else "edge-list file",
    )
    source.add_argument("--gen", metavar="SPEC", help="generator spec, e.g. grid:100x100")
    p.add_argument("--seed", type=int, default=0, help="seed for random generators")


def build_parser() -> _Parser:
    parser = _Parser(prog="dirspec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a generated graph as an edge list")
    p.add_argument("spec", help="tree:DxL | grid:RxC | whisker:KxWxL | random:NxP")
    p.add_argument("--seed", type=int, default=0, help="seed for random generators")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("gap", help="spectral gaps of one or more graphs")
    _add_source(p, multiple=True)
    _add_common(p)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("tree-converge", help="tree gap convergence by interior depth")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-levels", type=int, required=True)
    _add_common(p, with_boundary=False)
    p.set_defaults(func=cmd_tree_converge)

    p = sub.add_parser("grow", help="gaps of radius-grown subgraphs from the 1-median")
    _add_source(p)
    _add_common(p, with_boundary=False)
    p.set_defaults(func=cmd_grow)

    p = sub.add_parser("cluster-sweep", help="cut-size sweep comparing both methods")
    _add_source(p)
    _add_common(p)
    p.add_argument("--sizes", default=None, help="comma-separated cut sizes to keep")
    p.add_argument(
        "--emit-cuts",
        action="store_true",
        help="also write each recorded cut's induced edge list",
    )
    p.set_defaults(func=cmd_cluster_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
