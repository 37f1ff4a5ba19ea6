"""Seeded ISP-like router maps written as edge-list files.

Maps grow by preferential attachment: each new router links to one existing
router (probability STUB_PROB, which is what makes the degree-1 stubs) or to
two distinct ones, picked in proportion to their degree.  Labels and edge
order are shuffled by the seed, so the program sees an arbitrary first-seen
order, as it would with a measured map.

Only ``random.Random.random()`` is drawn from, because its stream is stable
across Python versions; the same seed gives byte-identical files.

Inputs are chosen so that the work of one run does not depend on the draw.
The dense eigensolver (LAPACK's MRRR routine, dsyevr) takes a third of its
usual time on about one matrix in four, by the matrix's spectrum, so
successive ``cluster-sweep`` and ``grow`` calls cycle through several maps
and the median call follows the common case: twelve sweep maps and seven
grow maps, about as many calls as a 20-second run makes on a 2-vCPU Xeon.
``cluster-sweep`` evaluates one cut per interior router, so sweep maps are
redrawn until their stub count is within 5 of 240 (a third of the draws).  ``grow`` solves one eigenproblem per radius around the
1-median, so a map whose 1-median has eccentricity 5 or 7 instead of 6
changes its work by a third; grow maps are redrawn until that eccentricity
is 6 (60% of the draws).  The time of one shift-invert solve varies by about
10% from map to map, so ``gap`` runs on six maps at once.
"""

from __future__ import annotations

import os
import random

from oracle import read_edges

STUB_PROB = 0.45
SWEEP_ROUTERS = 800
SWEEP_STUBS = (235, 245)
SWEEP_MAPS = 12
GROW_ROUTERS = 1000
GROW_ECCENTRICITY = 6
GROW_MAPS = 7
GAP_ROUTERS = 4000
GAP_MAPS = 6


def _shuffle(rng: random.Random, items: list) -> None:
    """Fisher-Yates shuffle driven only by rng.random()."""
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]


def isp_map(n: int, seed: int | str) -> list[tuple[str, str]]:
    """Edge list of an ISP-like map with n routers, as shuffled label pairs."""
    if n < 3:
        raise ValueError("isp_map needs n >= 3")
    rng = random.Random(seed)
    edges = [(0, 1), (1, 2), (0, 2)]
    ends = [0, 1, 1, 2, 0, 2]  # each node once per incident edge: degree-weighted draws
    for v in range(3, n):
        first = ends[int(rng.random() * len(ends))]
        targets = [first]
        if rng.random() >= STUB_PROB:
            second = first
            while second == first:
                second = ends[int(rng.random() * len(ends))]
            targets.append(second)
        for u in targets:
            edges.append((u, v))
            ends.extend((u, v))
    labels = [f"r{i}" for i in range(n)]
    _shuffle(rng, labels)
    _shuffle(rng, edges)
    out = []
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        out.append((labels[u], labels[v]))
    return out


def write_edge_list(path: str, edges: list[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("".join(f"{u} {v}\n" for u, v in edges))


def stub_count(edges: list[tuple[str, str]]) -> int:
    degree: dict[str, int] = {}
    for pair in edges:
        for lab in pair:
            degree[lab] = degree.get(lab, 0) + 1
    return sum(1 for d in degree.values() if d == 1)


def median_eccentricity(edges: list[tuple[str, str]]) -> int:
    """Eccentricity of the node with the least total hop distance (first-seen
    label on ties, as the CLI orders nodes)."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.csgraph import shortest_path

    ids: dict[str, int] = {}
    for pair in edges:
        for lab in pair:
            ids.setdefault(lab, len(ids))
    u = [ids[a] for a, _ in edges]
    v = [ids[b] for _, b in edges]
    adj = sp.csr_matrix((np.ones(len(u)), (u, v)), shape=(len(ids), len(ids)))
    dist = shortest_path(adj, directed=False, unweighted=True)
    return int(dist[int(np.argmin(dist.sum(axis=1)))].max())


def _redraw(n: int, name: str, accept) -> list[tuple[str, str]]:
    """The first map of the draws name-0, name-1, ... that passes accept."""
    attempt = 0
    while not accept(edges := isp_map(n, f"{name}-{attempt}")):
        attempt += 1
    return edges


def workload_inputs(workload: str, seed: int, work_dir: str) -> list[list[str]]:
    """Write the workload's edge-list files for this seed.

    Returns the input files of each call; successive calls cycle through them.
    """
    if workload == "sweep-isp":
        lo, hi = SWEEP_STUBS
        sets = [
            [_redraw(SWEEP_ROUTERS, f"sweep-{seed}-{i}", lambda e: lo <= stub_count(e) <= hi)]
            for i in range(SWEEP_MAPS)
        ]
    elif workload == "grow-isp":
        sets = [
            [_redraw(GROW_ROUTERS, f"grow-{seed}-{i}", lambda e: median_eccentricity(e) == GROW_ECCENTRICITY)]
            for i in range(GROW_MAPS)
        ]
    elif workload == "gap-isp":
        sets = [[isp_map(GAP_ROUTERS, f"gap-{seed}-{i}") for i in range(GAP_MAPS)]]
    else:
        sets = [[]]
    paths = []
    for i, maps in enumerate(sets):
        paths.append([])
        for j, edges in enumerate(maps):
            path = os.path.join(work_dir, f"map{i}-{j}.edges")
            write_edge_list(path, edges)
            paths[-1].append(path)
    return paths


def input_facts(path: str) -> dict:
    """Size of one input: routers, links, degree-1 boundary, and the nonzeros
    of its normalized and boundary-restricted Laplacians."""
    _, adj, m = read_edges(path)
    boundary = {v for v, nbrs in enumerate(adj) if len(nbrs) == 1}
    inner_links = sum(1 for v, nbrs in enumerate(adj) if v not in boundary for u in nbrs if u not in boundary)
    return {
        "n": len(adj),
        "m": m,
        "boundary": len(boundary),
        "laplacian_nnz": len(adj) + 2 * m,
        "dirichlet_nnz": len(adj) - len(boundary) + inner_links,
    }
