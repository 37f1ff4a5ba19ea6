"""Shared graph fixtures and slow reference implementations used as oracles.

The reference functions here deliberately avoid the package's vectorized and
bitmask code paths: plain BFS over Python sets, subset enumeration with exact
fractions, exact rational Collatz-Wielandt bounds, and dense LAPACK solves of
operators assembled here from edges and degrees (never through
``dirspec.spectral``), so the fast implementations are checked against an
independent route.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh, eigvalsh_tridiagonal
from scipy.sparse import csgraph

import dirspec as ds
from dirspec.errors import DataError, DirspecError, NumericalError
from dirspec.tree_spectrum import _eig_condition, eigenvalue_from_angle


@pytest.fixture
def two_triangle() -> ds.Graph:
    """Two triangles joined by one bridge edge c-d; no degree-1 nodes."""
    return ds.build_graph(
        [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f"), ("c", "d")]
    )


def path_graph(n: int) -> ds.Graph:
    return ds.build_graph([(str(i), str(i + 1)) for i in range(n - 1)])


def cycle_graph(n: int) -> ds.Graph:
    edges = [(str(i), str((i + 1) % n)) for i in range(n)]
    return ds.build_graph(edges)


def complete_graph(n: int) -> ds.Graph:
    return ds.build_graph([(str(i), str(j)) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> ds.Graph:
    return ds.build_graph([("hub", f"leaf{i}") for i in range(leaves)])


def id_set(ids) -> set[int]:
    """The members of a node-id array, checked to be ascending, distinct int64."""
    assert isinstance(ids, np.ndarray) and ids.dtype == np.int64
    assert (np.diff(ids) > 0).all()
    return set(ids.tolist())


def slow_volume(g: ds.Graph, s) -> int:
    return sum(int(g.degree[v]) for v in set(s))


def slow_edge_boundary(g: ds.Graph, s) -> int:
    inside = set(s)
    return sum(1 for u in inside for v in g.neighbors(u) if int(v) not in inside)


def slow_components(g: ds.Graph, s) -> int:
    left = set(int(v) for v in s)
    count = 0
    while left:
        count += 1
        queue = deque([left.pop()])
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                v = int(v)
                if v in left:
                    left.remove(v)
                    queue.append(v)
    return count


def slow_reattach_boundary(g: ds.Graph, boundary, interior_cut) -> frozenset[int]:
    """Per-node majority rule: a boundary node joins the cut when more than
    half of its interior neighbors are in it (ties and no neighbors: out)."""
    boundary = set(int(v) for v in boundary)
    cut = set(int(v) for v in interior_cut)
    joined = set()
    for v in boundary:
        interior_nbrs = [int(u) for u in g.neighbors(v) if int(u) not in boundary]
        inside = sum(1 for u in interior_nbrs if u in cut)
        if 2 * inside > len(interior_nbrs):
            joined.add(v)
    return frozenset(cut | joined)


def slow_distances(g: ds.Graph, src: int) -> dict[int, int]:
    """Hop distance to every node reachable from src, by BFS over Python sets."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            v = int(v)
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def slow_distance_sums(g: ds.Graph) -> list[int]:
    sums = []
    for src in range(g.node_count):
        dist = slow_distances(g, src)
        assert len(dist) == g.node_count, "disconnected graph in slow_distance_sums"
        sums.append(sum(dist.values()))
    return sums


def slow_eccentricity(g: ds.Graph, v: int) -> int:
    dist = slow_distances(g, v)
    assert len(dist) == g.node_count, "disconnected graph in slow_eccentricity"
    return max(dist.values())


def slow_ball(g: ds.Graph, center: int, radius: int) -> frozenset[int]:
    """Nodes within the hop radius of the center, by Dijkstra stopped at the radius."""
    dist = csgraph.dijkstra(
        g.adjacency_matrix,
        directed=False,
        indices=center,
        unweighted=True,
        limit=float(radius),
    )
    return frozenset(int(i) for i in np.flatnonzero(dist <= radius))


def slow_build_graph(edge_pairs) -> ds.Graph:
    """Graph of raw label pairs by a per-edge Python loop: a label dict, a
    seen-set of id pairs, adjacency lists and a per-node sort.  Self-loops
    and duplicates are dropped and counted, as ``build_graph`` does."""
    label_ids: dict[str, int] = {}
    labels: list[str] = []
    seen: set[tuple[int, int]] = set()
    adj: list[list[int]] = []
    duplicates = 0
    self_loops = 0

    for pair in edge_pairs:
        a, b = str(pair[0]), str(pair[1])
        if a == b:
            self_loops += 1
            continue
        ids = []
        for lab in (a, b):
            i = label_ids.get(lab)
            if i is None:
                i = len(labels)
                label_ids[lab] = i
                labels.append(lab)
                adj.append([])
            ids.append(i)
        u, v = ids
        key = (u, v) if u < v else (v, u)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)

    if not seen:
        raise DataError("empty graph: no edges remain after cleaning")

    indptr = np.zeros(len(labels) + 1, dtype=np.int64)
    for i, nbrs in enumerate(adj):
        nbrs.sort()
        indptr[i + 1] = indptr[i] + len(nbrs)
    indices = np.fromiter(
        (v for nbrs in adj for v in nbrs), dtype=np.int64, count=int(indptr[-1])
    )
    return ds.Graph(
        tuple(labels),
        indptr,
        indices,
        ds.CleaningReport(duplicates=duplicates, self_loops=self_loops),
    )


def slow_tree_pairs(degree: int, depth: int) -> list[tuple[str, str]]:
    """Label pairs of ``gen_tree``: level by level, each parent's children in turn."""
    edges: list[tuple[str, str]] = []
    level = [0]
    next_id = 1
    for lev in range(depth):
        fanout = degree if lev == 0 else degree - 1
        new_level = []
        for parent in level:
            for _ in range(fanout):
                edges.append((str(parent), str(next_id)))
                new_level.append(next_id)
                next_id += 1
        level = new_level
    return edges


def slow_grid_pairs(rows: int, cols: int) -> list[tuple[str, str]]:
    """Label pairs of ``gen_grid``: each node's left edge, then its up edge."""
    edges: list[tuple[str, str]] = []
    for k in range(1, rows * cols):
        r, c = divmod(k, cols)
        if c > 0:
            edges.append((str(k - 1), str(k)))
        if r > 0:
            edges.append((str(k - cols), str(k)))
    return edges


def slow_whisker_pairs(core_size: int, whisker_count: int, whisker_len: int) -> list[tuple[str, str]]:
    """Label pairs of ``gen_whisker``: the clique by (j, i < j), then each path."""
    edges: list[tuple[str, str]] = []
    for j in range(1, core_size):
        for i in range(j):
            edges.append((str(i), str(j)))
    next_id = core_size
    for w in range(whisker_count):
        prev = w % core_size
        for _ in range(whisker_len):
            edges.append((str(prev), str(next_id)))
            prev = next_id
            next_id += 1
    return edges


def slow_random_connected(n: int, p: float, seed: int = 0) -> tuple[ds.Graph, int]:
    """``gen_random_connected`` by one uniform draw over the whole upper
    triangle per attempt, label pairs and ``slow_build_graph``; also returns
    the number of draws taken."""
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    for attempt in range(1, 1001):
        pick = rng.random(iu.size) < p
        if not pick.any():
            continue
        pairs = [(str(int(u)), str(int(v))) for u, v in zip(iu[pick], iv[pick])]
        g = slow_build_graph(pairs)
        if g.node_count == n and slow_components(g, range(n)) == 1:
            return g, attempt
    raise AssertionError(f"no connected draw for n={n}, p={p}, seed={seed}")


def slow_induced_subgraph(g: ds.Graph, nodes) -> ds.Graph:
    """Induced subgraph by a label round trip through ``slow_build_graph``."""
    inset = g.node_mask(nodes)
    pairs = [
        (g.labels[u], g.labels[v])
        for u in np.flatnonzero(inset)
        for v in g.neighbors(u)
        if v > u and inset[v]
    ]
    return slow_build_graph(pairs)


def slow_radius_cut(sub: ds.Graph, parent: ds.Graph, members) -> frozenset[int]:
    """Subgraph nodes whose parent node has degree 1 or a neighbor outside
    ``members``, matched to the parent by label."""
    parent_id = {lab: i for i, lab in enumerate(parent.labels)}
    inset = set(int(v) for v in members)
    picked = set()
    for i, lab in enumerate(sub.labels):
        p = parent_id[lab]
        if parent.degree[p] == 1 or any(int(v) not in inset for v in parent.neighbors(p)):
            picked.add(i)
    return frozenset(picked)


def slow_grow_rows(g: ds.Graph, tol: float = 1e-8) -> list[tuple]:
    """``grow`` rows composed from the slow references: the 1-median by
    argmin of ``slow_distance_sums``, balls by ``slow_ball``, label round-trip
    subgraphs and the label-based radius cut.  Both gaps of a ball come from
    ``ds.gaps``, the solve ``grow`` makes.  An empty radius cut leaves the
    Dirichlet cell empty, as ``grow`` does: the operator is then the full
    Laplacian, whose smallest eigenvalue is 0."""
    sums = slow_distance_sums(g)
    center = sums.index(min(sums))
    rows = []
    for radius in range(1, slow_eccentricity(g, center) + 1):
        members = slow_ball(g, center, radius)
        sub = slow_induced_subgraph(g, members)
        nodes = slow_radius_cut(sub, g, members)
        try:
            trad, diri = ds.gaps(sub, sorted(nodes), tol=tol)
        except DirspecError:
            trad = diri = None
        if not 0 < len(nodes) < sub.node_count:  # no boundary or "no interior"
            diri = None
        rows.append((radius, sub.node_count, trad, diri))
    return rows


def isp_like_graph(n: int, seed: int) -> ds.Graph:
    """Preferential-attachment map: each new router links to one or two
    earlier routers drawn by degree, so a few hubs and many stubs appear."""
    rng = np.random.default_rng(seed)
    ends = [0, 1]
    edges = [("r0", "r1")]
    for v in range(2, n):
        links = 1 + int(rng.random() < 0.4)
        targets = {ends[int(rng.integers(len(ends)))] for _ in range(links)}
        for u in sorted(targets):
            edges.append((f"r{u}", f"r{v}"))
            ends += [u, v]
    return ds.build_graph(edges)


def slow_cheeger_constant(g: ds.Graph) -> tuple[Fraction, tuple[int, ...]]:
    """Exact global Cheeger constant by subset enumeration with Fractions."""
    n = g.node_count
    total = 2 * g.edge_count
    best: Fraction | None = None
    witness: tuple[int, ...] = ()
    for size in range(1, n):
        for combo in itertools.combinations(range(n), size):
            cut = slow_edge_boundary(g, combo)
            vol = slow_volume(g, combo)
            h = Fraction(cut, min(vol, total - vol))
            if best is None or h < best or (h == best and combo < witness):
                best, witness = h, combo
    assert best is not None
    return best, witness


def slow_local_cheeger_constant(
    g: ds.Graph, interior
) -> tuple[Fraction, tuple[int, ...]]:
    """Exact local Cheeger constant over nonempty subsets of the interior."""
    interior = sorted(int(v) for v in interior)
    best: Fraction | None = None
    witness: tuple[int, ...] = ()
    for size in range(1, len(interior) + 1):
        for combo in itertools.combinations(interior, size):
            h = Fraction(slow_edge_boundary(g, combo), slow_volume(g, combo))
            if best is None or h < best or (h == best and combo < witness):
                best, witness = h, combo
    assert best is not None
    return best, witness


def random_graph_suite(count: int, n_range=(4, 10), seed_base: int = 1000):
    """Deterministic stream of seeded random connected graphs."""
    lo, hi = n_range
    span = hi - lo + 1
    graphs = []
    for i in range(count):
        n = lo + i % span
        p = 0.3 + 0.1 * ((i // span) % 5)
        graphs.append(ds.gen_random_connected(n, p, seed=seed_base + i))
    return graphs


def slow_normalized_laplacian(g: ds.Graph) -> sp.csr_matrix:
    """Free-boundary normalized Laplacian: 1 on the diagonal, -1/sqrt(d_u d_v) on edges."""
    n = g.node_count
    eu, ev = g.edge_arrays
    scale = 1.0 / np.sqrt(g.degree.astype(float))
    off = -scale[eu] * scale[ev]
    diag = np.arange(n)
    return sp.csr_matrix(
        (
            np.concatenate([off, off, np.ones(n)]),
            (np.concatenate([eu, ev, diag]), np.concatenate([ev, eu, diag])),
        ),
        shape=(n, n),
    )


def slow_grid_gap(g: ds.Graph) -> float:
    """Traditional gap of an even RxR grid from its reflection sectors.

    The operator commutes with the x- and y-reflections, so it splits into
    four (R/2)^2 blocks, one per even/odd parity pair, each solved densely.
    The constant-sign ground state sits in even/even, so lambda_2 is the
    smaller of that block's second eigenvalue and the lowest of odd/even and
    odd/odd; even/odd is odd/even transposed and has the same spectrum.
    Node (r, c) must carry the label r*R + c, as ``gen_grid`` assigns.
    """
    n = g.node_count
    side = math.isqrt(n)
    assert side * side == n and side % 2 == 0, "slow_grid_gap needs an even RxR grid"
    half = side // 2
    r, c = np.divmod(np.array([int(lab) for lab in g.labels]), side)
    # each node maps to its mirror image in the quadrant r, c < R/2
    quadrant = np.minimum(r, side - 1 - r) * half + np.minimum(c, side - 1 - c)
    sign_r = np.where(r < half, 1.0, -1.0)
    sign_c = np.where(c < half, 1.0, -1.0)
    lap = slow_normalized_laplacian(g)

    def sector(weights: np.ndarray, index: int) -> float:
        basis = sp.csr_matrix(
            (0.5 * weights, (np.arange(n), quadrant)), shape=(n, half * half)
        )
        block = (basis.T @ lap @ basis).toarray()
        return float(eigh(block, eigvals_only=True, subset_by_index=[index, index])[0])

    return min(
        sector(np.ones(n), 1),
        sector(sign_r, 0),
        sector(sign_r * sign_c, 0),
    )


def slow_radial_tree_gap(degree: int, levels: int) -> float:
    """Dirichlet gap of the regular tree with leaves at depth levels+1, by radial reduction.

    The ground state is constant on each level, so the operator reduces to the
    (levels+1)x(levels+1) symmetric tridiagonal I - T/d on levels 0..levels,
    where T couples level 0 to 1 with sqrt(d) (the root has d children) and
    each deeper pair with sqrt(d-1).
    """
    off = np.full(levels, math.sqrt(degree - 1))
    off[0] = math.sqrt(degree)
    return float(
        eigvalsh_tridiagonal(
            np.ones(levels + 1), -off / degree, select="i", select_range=(0, 0)
        )[0]
    )


def slow_radial_tree_spectrum(degree: int, levels: int) -> np.ndarray:
    """Every level-constant eigenvalue of the same radial tridiagonal, ascending.

    These are the tree's depth-symmetric family: the whole spectrum of the
    (levels+1)x(levels+1) matrix that slow_radial_tree_gap takes the lowest of.
    """
    off = np.full(levels, math.sqrt(degree - 1))
    off[0] = math.sqrt(degree)
    return eigvalsh_tridiagonal(np.ones(levels + 1), -off / degree)


def slow_bracketed_root(degree: int, levels: int, j: int) -> float:
    """Root j of the condition, the one on ((j-1/2)pi/m, j pi/m), j = 1..m//2,
    by bisecting that one bracket alone, one scalar evaluation at a time.

    The ends must carry the proved signs (-1)^(j+1) and (-1)^j, else
    NumericalError. Bisection runs to adjacent floats and returns the end
    with the smaller residual.
    """
    m = levels + 1
    lo, hi = (j - 0.5) * math.pi / m, j * math.pi / m
    flo = _eig_condition(degree, levels, lo)
    fhi = _eig_condition(degree, levels, hi)
    sign = 1.0 if j % 2 else -1.0
    if not (sign * flo > 0.0 > sign * fhi):
        raise NumericalError(
            f"root {j} bracket has no sign change: condition {flo:.3e} at "
            f"(j-1/2)pi/m, {fhi:.3e} at j*pi/m (degree={degree}, levels={levels})"
        )
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = _eig_condition(degree, levels, mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return lo if abs(flo) <= abs(fhi) else hi


def merged_tree_values(degree: int, levels: int) -> np.ndarray:
    """Sorted distinct eigenvalues of both tree families; a value at most 1e-12
    above the last one kept counts as a repeat."""
    symmetric = eigenvalue_from_angle(degree, ds.symmetric_family_roots(degree, levels))
    sector, _ = ds.sector_family_eigenvalues(degree, levels)
    vals = sorted(symmetric.tolist() + sector.tolist())
    merged = [vals[0]]
    for v in vals[1:]:
        if v - merged[-1] > 1e-12:
            merged.append(v)
    return np.array(merged)


def slow_dirichlet_laplacian(g: ds.Graph, interior) -> sp.csr_matrix:
    """``slow_normalized_laplacian`` restricted to the interior rows and columns."""
    interior = np.asarray(interior)
    return slow_normalized_laplacian(g)[interior][:, interior].tocsr()


def slow_format_cell(value) -> str:
    """One CSV cell by the written rule, one call per cell: ints by ``str``,
    floats at 6 significant digits with 0 for both zeros, None as empty,
    anything else by ``str``."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if not isinstance(value, (float, np.floating)):
        return str(value)
    v = float(value)
    return "0" if v == 0.0 else f"{v:.6g}"


def slow_collatz_wielandt(matrix, x) -> tuple[float, float]:
    """Bounds on the smallest eigenvalue of a symmetric Z-matrix from a positive vector.

    With every off-diagonal entry <= 0 and x (or -x) entrywise positive,
    min_i (Ax)_i/x_i <= lambda_min <= max_i (Ax)_i/x_i.  Each ratio is
    formed exactly with Fractions, row by row over the stored entries, and
    the two ends are rounded outward to floats.
    """
    a = sp.csr_matrix(matrix)
    x = [Fraction(float(v)) for v in x]
    if sum(x) < 0:
        x = [-v for v in x]
    assert all(v > 0 for v in x), "Collatz-Wielandt needs a sign-definite vector"
    ratios = []
    for i in range(a.shape[0]):
        row = range(a.indptr[i], a.indptr[i + 1])
        total = Fraction(0)
        for p in row:
            j, aij = int(a.indices[p]), Fraction(float(a.data[p]))
            assert j == i or aij <= 0, f"positive off-diagonal entry at ({i}, {j})"
            total += aij * x[j]
        ratios.append(total / x[i])
    lo, hi = min(ratios), max(ratios)
    lo_f, hi_f = float(lo), float(hi)
    if Fraction(lo_f) > lo:
        lo_f = math.nextafter(lo_f, -math.inf)
    if Fraction(hi_f) < hi:
        hi_f = math.nextafter(hi_f, math.inf)
    return lo_f, hi_f
