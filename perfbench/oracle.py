"""Independent reference values and output checks for each workload.

Nothing here imports dirspec: every reference is recomputed from the edge-list
files with plain-Python parsing and breadth-first search, exact fractions, a
bracketed root solve, or numpy/scipy solvers called directly.  Each oracle
knows how many output rows a correct run writes (``expected_rows``), so a
crashed run can be charged with every row it should have produced, and
``failed_rows`` counts the rows of one run's CSVs that fail a check.

Float cells are compared at the CSV's 6 significant digits: a cell passes
when it lies within half a unit of the 6th digit of the reference.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

ORACLE_VERSION = 1

TREE_DEGREE = 3
TREE_LEVELS = 200
NUMERIC_TREE_LIMIT = 2048  # the CLI solves trees numerically up to this many nodes

GAP_SHIFT = -1e-3  # differs from the program's shift on purpose

# the captured SweepReport next to the CSVs: a JSON line of rows, then one
# JSON line per row with its Dirichlet and its traditional cut, as node labels
SWEEP_REPORT = "sweep_report.json"


def agrees(cell: str, ref, floor: float = 0.0) -> bool:
    """Whether a CSV cell matches a reference (None means an empty cell)."""
    if ref is None:
        return cell == ""
    if isinstance(ref, int):
        return cell == str(ref)
    try:
        x = float(cell)
    except ValueError:
        return False
    if ref == 0.0:
        return abs(x) <= floor
    unit = 10.0 ** (math.floor(math.log10(abs(ref))) - 5)
    return abs(x - ref) <= (0.5 + 1e-6) * unit + floor


def read_csv(path: str) -> tuple[list[str], list[list[str]]] | None:
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError:
        return None
    if not lines:
        return None
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_edges(path: str) -> tuple[list[str], list[set[int]], int]:
    """Labels in first-seen order, adjacency sets by that order, and edge count."""
    ids: dict[str, int] = {}
    adj: list[set[int]] = []
    m = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            a, b = tokens
            if a == b:
                continue
            pair = []
            for lab in (a, b):
                if lab not in ids:
                    ids[lab] = len(adj)
                    adj.append(set())
                pair.append(ids[lab])
            u, v = pair
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                m += 1
    return list(ids), adj, m


def bfs(adj: list[set[int]], source: int, within: set[int] | None = None) -> dict[int, int]:
    """Hop distances from source, optionally inside a node set."""
    dist = {source: 0}
    queue = [source]
    for u in queue:
        for v in adj[u]:
            if v not in dist and (within is None or v in within):
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def component_count(adj: list[set[int]], nodes: set[int]) -> int:
    """Connected components of the subgraph induced by nodes."""
    remaining = set(nodes)
    count = 0
    while remaining:
        count += 1
        frontier = [remaining.pop()]
        while frontier:
            reached = adj[frontier.pop()] & remaining
            remaining -= reached
            frontier.extend(reached)
    return count


def _cached(cache_dir: str, key_parts: list, compute):
    h = hashlib.sha256(json.dumps([ORACLE_VERSION, *key_parts]).encode())
    for part in key_parts:
        if isinstance(part, str) and os.path.isfile(part):
            with open(part, "rb") as f:
                h.update(f.read())
    path = os.path.join(cache_dir, h.hexdigest()[:24] + ".json")
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    value = compute()
    os.makedirs(cache_dir, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(value, f)
    os.replace(tmp, path)
    return value


def _count_failed(expected: list[list], header: list[str], csv_path: str, floor=0.0) -> int:
    """Rows of a CSV that differ from the expected rows, cell by cell."""
    table = read_csv(csv_path)
    if table is None or table[0] != header:
        return len(expected)
    rows = table[1]
    failed = sum(
        1
        for i, exp in enumerate(expected)
        if i >= len(rows)
        or len(rows[i]) != len(exp)
        or not all(agrees(c, r, floor) for c, r in zip(rows[i], exp))
    )
    return min(len(expected), failed + max(0, len(rows) - len(expected)))


# --- tree-converge ---------------------------------------------------------


def tree_gap(degree: int, levels: int) -> float:
    """Smallest Dirichlet eigenvalue of the regular tree, by bisection of
    d sin(a) cos(ma) + (d-2) cos(a) sin(ma) on (pi/2m, pi/m), m = levels+1."""
    m = levels + 1

    def f(a: float) -> float:
        return degree * math.sin(a) * math.cos(m * a) + (degree - 2) * math.cos(a) * math.sin(m * a)

    lo, hi = math.pi / (2 * m), math.pi / m
    flo = f(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    return 1.0 - 2.0 * math.sqrt(degree - 1) / degree * math.cos(a)


class TreeOracle:
    header = ["L", "analytic_gap", "numeric_gap"]

    def __init__(self, inputs: list[str], cache_dir: str):
        d = TREE_DEGREE
        self.expected = []
        for levels in range(1, TREE_LEVELS + 1):
            gap = tree_gap(d, levels)
            nodes = 1 + d * ((d - 1) ** (levels + 1) - 1) // (d - 2)
            self.expected.append([levels, gap, gap if nodes <= NUMERIC_TREE_LIMIT else None])
        self.expected_rows = len(self.expected)

    def failed_rows(self, out_dir: str, result: dict) -> int:
        return _count_failed(self.expected, self.header, os.path.join(out_dir, "tree_converge.csv"))


# --- grow --------------------------------------------------------------------


def _normalized_laplacian(nodes: list[int], adj: list[set[int]]):
    """Dense I - D^-1/2 A D^-1/2 of the subgraph induced by nodes."""
    import numpy as np

    pos = {v: i for i, v in enumerate(nodes)}
    a = np.zeros((len(nodes), len(nodes)))
    for v in nodes:
        for u in adj[v]:
            if u in pos:
                a[pos[v], pos[u]] = 1.0
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return np.eye(len(nodes)) - a * inv_sqrt[:, None] * inv_sqrt[None, :]


def grow_reference(path: str) -> list[list]:
    """Rows (r, n_sub, traditional gap, Dirichlet gap) by BFS balls around the
    1-median (ties to the first-seen label) and dense eigvalsh."""
    import numpy as np

    _, adj, _ = read_edges(path)
    n = len(adj)
    sums = [sum(bfs(adj, s).values()) for s in range(n)]
    center = min(range(n), key=lambda v: (sums[v], v))
    dist = bfs(adj, center)
    rows = []
    for r in range(1, max(dist.values()) + 1):
        members = sorted(v for v, d in dist.items() if d <= r)
        inball = set(members)
        lap = _normalized_laplacian(members, adj)
        trad = float(np.linalg.eigvalsh(lap)[1])
        interior = [
            i for i, v in enumerate(members) if len(adj[v]) > 1 and adj[v] <= inball
        ]
        diri = None
        if interior:
            diri = float(np.linalg.eigvalsh(lap[np.ix_(interior, interior)])[0])
        rows.append([r, len(members), trad, diri])
    return rows


class GrowOracle:
    header = ["r", "n_sub", "traditional_gap", "dirichlet_gap"]

    def __init__(self, inputs: list[str], cache_dir: str):
        (path,) = inputs
        self.expected = _cached(cache_dir, ["grow", path], lambda: grow_reference(path))
        self.expected_rows = len(self.expected)

    def failed_rows(self, out_dir: str, result: dict) -> int:
        return _count_failed(self.expected, self.header, os.path.join(out_dir, "grow.csv"))


# --- gap -------------------------------------------------------------------


def gap_reference(path: str) -> list:
    """(n, m, boundary_size, traditional gap, Dirichlet gap) by shift-invert
    Lanczos on a separately assembled operator, factorized with a minimum
    degree ordering and checked by its residual."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    _, adj, m = read_edges(path)
    n = len(adj)
    rows, cols = [], []
    for v, nbrs in enumerate(adj):
        rows.extend([v] * len(nbrs))
        cols.extend(nbrs)
    deg = np.array([len(nbrs) for nbrs in adj], dtype=float)
    w = 1.0 / np.sqrt(deg[rows] * deg[cols])
    lap = (sp.identity(n, format="csr") - sp.csr_matrix((w, (rows, cols)), shape=(n, n))).tocsr()
    interior = np.flatnonzero(deg > 1)

    def smallest(a, k: int) -> np.ndarray:
        size = a.shape[0]
        lu = splu((a - GAP_SHIFT * sp.identity(size)).tocsc(), permc_spec="MMD_AT_PLUS_A")
        op = LinearOperator((size, size), matvec=lu.solve, dtype=float)
        v0 = np.random.default_rng(12345).random(size)
        vals, vecs = eigsh(a, k=k, sigma=GAP_SHIFT, which="LM", OPinv=op, v0=v0, tol=1e-13)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        residual = np.linalg.norm(a @ vecs - vecs * vals, axis=0).max()
        if residual > 1e-9:
            raise RuntimeError(f"reference eigensolve residual {residual:.3e}")
        return vals

    trad = float(smallest(lap, 2)[1])
    diri = float(smallest(lap[interior][:, interior].tocsr(), 1)[0])
    return [n, m, n - interior.size, trad, diri]


class GapOracle:
    header = ["n", "m", "boundary_size", "traditional_gap", "dirichlet_gap"]

    def __init__(self, inputs: list[str], cache_dir: str):
        self.expected = [_cached(cache_dir, ["gap", p], lambda p=p: gap_reference(p)) for p in inputs]
        self.expected_rows = len(self.expected)

    def failed_rows(self, out_dir: str, result: dict) -> int:
        return _count_failed(self.expected, self.header, os.path.join(out_dir, "gap.csv"))


# --- cluster-sweep -----------------------------------------------------------


class SweepOracle:
    """Checks the captured SweepReport and the two CSVs written from it.

    For the Dirichlet and the traditional cut of every row, h is recomputed
    as an exact fraction and c by BFS, and the cut must have k nodes and
    contain the previous row's cut.  The Dirichlet cut's interior part must
    grow by one node per row, and each boundary node must sit inside exactly
    when most of its interior neighbours do.  These checks hold whatever
    eigenbasis the solver returns.
    A correct run writes one row per interior prefix (sizes strictly grow, so
    none is skipped) plus the aggregate row.
    """

    sizes_header = ["k", "h_D", "c_D", "h_T", "c_T"]
    aggregate_header = [
        "cat_le_le", "cat_le_gt", "cat_gt_le", "cat_gt_gt",
        "avg_dc", "avg_dh", "avg_cT", "avg_hT",
    ]

    def __init__(self, inputs: list[str], cache_dir: str):
        (path,) = inputs
        labels, self.adj, self.m = read_edges(path)
        self.ids = {lab: i for i, lab in enumerate(labels)}
        self.boundary = {v for v, nbrs in enumerate(self.adj) if len(nbrs) == 1}
        self.boundary_interior_nbrs = [(b, self.adj[b] - self.boundary) for b in sorted(self.boundary)]
        self.interior_count = len(self.adj) - len(self.boundary)
        self.expected_rows = self.interior_count  # interior_count - 1 prefixes, and the aggregate
        self._report_verdicts: dict[str, list[bool]] = {}

    def _scores(self, cut: set[int]) -> tuple[float, int]:
        """Cheeger ratio, rounded once from the exact fraction, and components."""
        adj = self.adj
        vol = sum(len(adj[v]) for v in cut)
        cut_edges = vol - sum(len(adj[v] & cut) for v in cut)
        return float(Fraction(cut_edges, min(vol, 2 * self.m - vol))), component_count(adj, cut)

    def _row_ok(self, row: list, cut: set[int], trad: set[int], prev: tuple, j: int) -> bool:
        k, h_d, c_d, h_t, c_t = row
        prev_part, prev_trad = prev
        part = cut - self.boundary
        ok = len(cut) == k and len(part) == j and prev_part <= part
        ok = ok and all(
            (b in cut) == (2 * len(part.intersection(nbrs)) > len(nbrs))
            for b, nbrs in self.boundary_interior_nbrs
        )
        ok = ok and self._scores(cut) == (h_d, c_d)
        ok = ok and len(trad) == k and prev_trad <= trad and self._scores(trad) == (h_t, c_t)
        return ok

    def _verdicts(self, report: dict, key: str) -> list[bool]:
        """Per expected row: whether the report's row and cuts are right."""
        if key not in self._report_verdicts:
            verdicts = []
            prev: tuple[set[int], set[int]] = (set(), set())
            rows, cuts = report["rows"], report["cuts"]
            for i in range(self.interior_count - 1):
                if (
                    i >= len(rows) or i >= len(cuts) or len(cuts[i]) != 2
                    or any(lab not in self.ids for side in cuts[i] for lab in side)
                ):
                    verdicts.append(False)
                    continue
                cut, trad = ({self.ids[lab] for lab in side} for side in cuts[i])
                verdicts.append(self._row_ok(rows[i], cut, trad, prev, i + 1))
                prev = (cut - self.boundary, trad)
            self._report_verdicts[key] = verdicts
        return self._report_verdicts[key]

    def _aggregate(self, rows: list[list]) -> list:
        cats = [0, 0, 0, 0]
        for _k, h_d, c_d, h_t, c_t in rows:
            cats[2 * (c_d > c_t) + (h_d > h_t)] += 1
        count = len(rows)
        avg = [
            Fraction(sum(r[2] - r[4] for r in rows), count),
            sum(Fraction(r[1]) - Fraction(r[3]) for r in rows) / count,
            Fraction(sum(r[4] for r in rows), count),
            sum(Fraction(r[3]) for r in rows) / count,
        ]
        return cats + [float(a) for a in avg]

    def failed_rows(self, out_dir: str, result: dict) -> int:
        try:
            with open(os.path.join(out_dir, SWEEP_REPORT), "rb") as f:
                raw = f.read()
            lines = raw.splitlines()
            report = {"rows": json.loads(lines[0]), "cuts": [json.loads(line) for line in lines[1:]]}
        except (OSError, ValueError, IndexError):
            report = None
        table = read_csv(os.path.join(out_dir, "sweep_sizes.csv"))
        if report is None or table is None or table[0] != self.sizes_header:
            return self.expected_rows
        verdicts = self._verdicts(report, hashlib.sha256(raw).hexdigest())
        rows, csv_rows = report["rows"], table[1]
        bad = sum(
            1
            for i, ok in enumerate(verdicts)
            if not (
                ok
                and i < len(csv_rows)
                and len(csv_rows[i]) == len(rows[i])
                and all(agrees(c, r) for c, r in zip(csv_rows[i], rows[i]))
            )
        )
        bad += max(0, len(csv_rows) - len(verdicts))
        agg_path = os.path.join(out_dir, "sweep_aggregate.csv")
        bad += not rows or _count_failed([self._aggregate(rows)], self.aggregate_header, agg_path, 1e-12) > 0
        return min(self.expected_rows, bad)


ORACLES = {
    "sweep-isp": SweepOracle,
    "grow-isp": GrowOracle,
    "tree-converge": TreeOracle,
    "gap-isp": GapOracle,
}
