"""Two-eigenvector spectral clustering, sweep cuts, and method comparison.

Both the boundary-conditioned and the traditional pipeline embed nodes by the
eigenvectors of the two smallest eigenvalues, split them with deterministic
2-means, rank every node by its distance difference to the two centers, and
evaluate the nested prefix cuts of that ranking.  The sweep pairs the two
methods size-for-size and aggregates the comparison.  Within a sweep, cuts pass
as ascending int64 node-id arrays.  Every Dirichlet cut of a sweep contains
the one before it, so the report keeps the cuts as prefixes of one insertion
order: O(n + rows) ids, not one set per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .cheeger import cheeger_ratio
from .errors import DataError, NumericalError
from .graph import Graph, components, is_connected
from .spectral import EigenResult, SymmetricMatrix, paired_solves, smallest_eigenpairs

KMEANS_MAX_ROUNDS = 100


@dataclass(frozen=True)
class Embedding:
    """Per-node 2D coordinates from the two smallest eigenvectors."""

    node_ids: np.ndarray
    coords: np.ndarray


@dataclass(frozen=True)
class CutRecord:
    """A cut's Cheeger ratio and the component count of the subgraph it induces."""

    h: float
    c: int


def evaluate_cut(g: Graph, nodes: Iterable[int], method: str) -> CutRecord:
    """Score one cut: its Cheeger ratio and induced component count.

    The node set goes through one boolean mask over the graph's ids, so a
    numpy prefix of a ranking becomes the ascending member ids without a
    per-element Python conversion and duplicate ids count once.
    ``cheeger_ratio`` and ``components`` each score those ids from their own
    mask, which is linear in the graph.  ``method`` ("dirichlet" or
    "traditional") names the cut family for code that wraps this call; the
    score does not depend on it.  Raises DataError for ids outside the graph
    and for an empty or full set.
    """
    members = np.flatnonzero(g.node_mask(nodes, allow_empty=True))
    return CutRecord(h=cheeger_ratio(g, members), c=components(g, members))


@dataclass(frozen=True)
class SweepRow:
    k: int
    h_d: float
    c_d: int
    h_t: float
    c_t: int


@dataclass(frozen=True)
class SweepReport:
    """Size-paired cut comparison plus the four-category aggregate.

    ``dirichlet_cuts[i]`` is the Dirichlet cut of ``rows[i]``: a view of the
    first ``rows[i].k`` ids of one read-only int64 insertion order, so the
    cuts share one array and no row copies its members.  ``traditional_order``
    is the traditional ranking, a read-only int64 array of every node id;
    the traditional cut of ``rows[i]`` is its first ``rows[i].k`` ids.
    """

    rows: tuple[SweepRow, ...]
    dirichlet_cuts: tuple[np.ndarray, ...]  # prefix views of one order, aligned with rows
    traditional_order: np.ndarray
    cat_le_le: int
    cat_le_gt: int
    cat_gt_le: int
    cat_gt_gt: int
    avg_dc: float
    avg_dh: float
    avg_ct: float
    avg_ht: float


def _embedding(node_ids: np.ndarray, res: EigenResult) -> Embedding:
    """The two eigenvectors of ``res`` as coordinates of ``node_ids``, each flipped
    so its first nonzero component is positive, making the embedding deterministic."""
    coords = res.eigenvectors.copy()
    for j in range(2):
        col = coords[:, j]
        nz = np.flatnonzero(col != 0.0)
        if nz.size and col[nz[0]] < 0:
            coords[:, j] = -col
    return Embedding(node_ids, coords)


def embed(m: SymmetricMatrix, tol: float = 1e-8) -> Embedding:
    """Coordinates from the eigenvectors of the two smallest eigenvalues (``_embedding``)."""
    if m.n < 2:
        raise DataError("embedding requires matrix dimension >= 2")
    return _embedding(m.index_map.copy(), smallest_eigenpairs(m, k=2, tol=tol))


def two_means(emb: Embedding) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic 2-means over the embedding.

    Centers start at the points with minimum and maximum second-eigenvector
    coordinate; Lloyd rounds run until the assignment repeats (cap 100).
    Equidistant points stay with the first center.
    """
    pts = emb.coords
    if (pts == pts[0]).all():
        raise NumericalError("degenerate embedding: all points identical")
    centers = np.array([pts[int(np.argmin(pts[:, 1]))], pts[int(np.argmax(pts[:, 1]))]])
    assign: np.ndarray | None = None
    for _ in range(KMEANS_MAX_ROUNDS):
        d0 = ((pts - centers[0]) ** 2).sum(axis=1)
        d1 = ((pts - centers[1]) ** 2).sum(axis=1)
        new_assign = (d1 < d0).astype(np.int64)
        if assign is not None and (new_assign == assign).all():
            break
        assign = new_assign
        for idx in (0, 1):
            sel = pts[assign == idx]
            if len(sel):
                centers[idx] = sel.mean(axis=0)
    assert assign is not None
    return centers, assign


def rank_nodes(
    g: Graph, emb: Embedding, centers: np.ndarray, assign: np.ndarray
) -> np.ndarray:
    """Node ids sorted by (distance to the small-volume center minus distance
    to the other), ascending; ties break by node id.  Prefixes are the cuts."""
    vols = [int(g.degree[emb.node_ids[assign == i]].sum()) for i in (0, 1)]
    if vols[0] < vols[1]:
        a = 0
    elif vols[1] < vols[0]:
        a = 1
    else:
        a = int(assign[0])  # tie: the cluster holding the lowest node id
    d_a = np.linalg.norm(emb.coords - centers[a], axis=1)
    d_b = np.linalg.norm(emb.coords - centers[1 - a], axis=1)
    order = np.lexsort((emb.node_ids, d_a - d_b))
    return emb.node_ids[order]


def reattach_boundary(
    g: Graph, boundary: Iterable[int], interior_cut: Iterable[int]
) -> np.ndarray:
    """Pull each boundary node into the cut when most of its interior
    neighbors are inside; exact ties and neighbor-less nodes stay outside.
    Returns the ascending, read-only int64 ids of the cut with its
    reattached nodes.

    Selects the edges that join the boundary to the interior on each call;
    one bincount over them counts each boundary node's interior neighbors,
    and one more counts those inside the cut.
    """
    cut = g.node_mask(interior_cut, allow_empty=True)
    on_boundary = g.node_mask(boundary, allow_empty=True)
    if (cut & on_boundary).any():
        raise DataError("interior cut contains boundary nodes")
    eu, ev = g.edge_arrays
    u_stub = on_boundary[eu]
    cross = u_stub != on_boundary[ev]
    stub = np.where(u_stub, eu, ev)[cross]
    inner = np.where(u_stub, ev, eu)[cross]
    inside = np.bincount(stub[cut[inner]], minlength=g.node_count)
    total = np.bincount(stub, minlength=g.node_count)
    ids = np.flatnonzero(cut | (2 * inside > total))
    ids.flags.writeable = False
    return ids


def _ranking(g: Graph, e: Embedding) -> np.ndarray:
    centers, assign = two_means(e)
    return rank_nodes(g, e, centers, assign)


def sweep(
    g: Graph,
    boundary: Iterable[int],
    tol: float = 1e-8,
    sizes: Sequence[int] | None = None,
) -> SweepReport:
    """Full cut-size sweep comparing boundary-conditioned and traditional cuts.

    For each interior prefix, the boundary is reattached and the resulting
    size is matched by a traditional prefix cut of the same size.  Each
    prefix adds one interior node, and a boundary node's count of interior
    neighbors inside only grows, so once reattached it stays in: every cut
    contains the previous one.  So the sizes strictly grow from at least 1
    to at most n-1, one row per prefix, and each row's Dirichlet cut is the
    prefix of its size of one insertion order, to which every prefix appends
    the ids it gains, ascending; ``sizes`` keeps only the rows of the listed
    sizes, and the dropped prefixes still append.

    Both rankings embed ``paired_solves``'s two-pair solves; an empty boundary,
    whose Dirichlet operator is the traditional one, ranks both by the latter.
    Nodes that an automorphism swaps tie in exact arithmetic, so rounding
    orders them: which of them a cut holds may move, its h and c cannot.
    """
    if not is_connected(g):
        raise DataError("sweep requires a connected graph")
    on_boundary = g.node_mask(boundary, allow_empty=True)  # read once: an iterator works
    boundary, inner = np.flatnonzero(on_boundary), np.flatnonzero(~on_boundary)
    if inner.size < 2:
        raise DataError("sweep requires at least two interior nodes")

    trad, diri = paired_solves(g, boundary, 2, tol)
    order_t = _ranking(g, _embedding(np.arange(g.node_count), trad))
    order_d = order_t if diri is None else _ranking(g, _embedding(inner, diri))
    order_t.flags.writeable = False  # the report's traditional_order

    wanted = set(int(s) for s in sizes) if sizes is not None else None
    rows: list[SweepRow] = []
    inserted: list[np.ndarray] = []
    prev = np.zeros(g.node_count, dtype=bool)  # the previous cut, as a mask
    for j in range(1, inner.size):
        cut = reattach_boundary(g, boundary, order_d[:j])
        inserted.append(cut[~prev[cut]])
        prev[cut] = True
        k = cut.size
        if wanted is not None and k not in wanted:
            continue
        d_rec = evaluate_cut(g, cut, "dirichlet")
        t_rec = evaluate_cut(g, order_t[:k], "traditional")
        rows.append(SweepRow(k=k, h_d=d_rec.h, c_d=d_rec.c, h_t=t_rec.h, c_t=t_rec.c))
    if not rows:
        raise DataError("sweep produced no cuts (size filter too strict?)")

    le_le = le_gt = gt_le = gt_gt = 0
    for r in rows:
        if r.c_d <= r.c_t:
            if r.h_d <= r.h_t:
                le_le += 1
            else:
                le_gt += 1
        else:
            if r.h_d <= r.h_t:
                gt_le += 1
            else:
                gt_gt += 1
    count = len(rows)
    order = np.concatenate(inserted)
    order.flags.writeable = False  # every row's cut is a view of it
    return SweepReport(
        rows=tuple(rows),
        dirichlet_cuts=tuple(order[: r.k] for r in rows),
        traditional_order=order_t,
        cat_le_le=le_le,
        cat_le_gt=le_gt,
        cat_gt_le=gt_le,
        cat_gt_gt=gt_gt,
        avg_dc=sum(r.c_d - r.c_t for r in rows) / count,
        avg_dh=sum(r.h_d - r.h_t for r in rows) / count,
        avg_ct=sum(r.c_t for r in rows) / count,
        avg_ht=sum(r.h_t for r in rows) / count,
    )


SIZES_HEADER = ("k", "h_D", "c_D", "h_T", "c_T")
AGGREGATE_HEADER = (
    "cat_le_le",
    "cat_le_gt",
    "cat_gt_le",
    "cat_gt_gt",
    "avg_dc",
    "avg_dh",
    "avg_cT",
    "avg_hT",
)


def size_rows(report: SweepReport) -> list[tuple]:
    return [(r.k, r.h_d, r.c_d, r.h_t, r.c_t) for r in report.rows]


def aggregate_row(report: SweepReport) -> tuple:
    return (
        report.cat_le_le,
        report.cat_le_gt,
        report.cat_gt_le,
        report.cat_gt_gt,
        report.avg_dc,
        report.avg_dh,
        report.avg_ct,
        report.avg_ht,
    )

