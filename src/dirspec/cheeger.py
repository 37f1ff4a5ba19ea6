"""Cheeger ratios and exact (brute-force) Cheeger constants on small graphs.

The global ratio of a cut S is e(S, ~S) / min(vol S, vol ~S); the local
variant, used with a designated boundary, is e(T, ~T) / vol(T) for sets T
that avoid the boundary.  Brute-force minimization enumerates all subsets
with bitmask arithmetic, comparing ratios exactly as integer fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import DataError
from .graph import Graph, edge_boundary, interior, volume

BRUTE_FORCE_CAP = 20


@dataclass(frozen=True)
class CheegerReport:
    """A Cheeger value with the subset achieving it, as ascending read-only int64 ids."""

    value: float
    witness: np.ndarray


def cheeger_ratio(g: Graph, s: Iterable[int]) -> float:
    """e(S, ~S) / min(vol S, vol ~S) for a nonempty proper subset S."""
    s = np.flatnonzero(g.node_mask(s))  # read s once: it may be an iterator
    vol_s = volume(g, s)
    vol_rest = 2 * g.edge_count - vol_s
    if vol_rest == 0:  # no node is isolated: only the full set leaves no volume outside
        raise DataError("cheeger_ratio needs a nonempty proper subset")
    return edge_boundary(g, s) / min(vol_s, vol_rest)


def local_cheeger_ratio(g: Graph, boundary: Iterable[int], t: Iterable[int]) -> float:
    """e(T, ~T) / vol(T) for a nonempty T disjoint from the boundary."""
    inset = g.node_mask(t)
    if (inset & g.node_mask(boundary, allow_empty=True)).any():
        raise DataError("set overlaps the boundary; local ratio is undefined there")
    members = np.flatnonzero(inset)
    return edge_boundary(g, members) / volume(g, members)


def _neighbor_masks(g: Graph, nodes: list[int]) -> list[int]:
    """Per node of ``nodes``, the bitmask of its neighbors' positions in ``nodes``."""
    pos = {v: i for i, v in enumerate(nodes)}
    masks = []
    for v in nodes:
        m = 0
        for u in g.neighbors(v):
            j = pos.get(int(u))
            if j is not None:
                m |= 1 << j
        masks.append(m)
    return masks


def _lex_key(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _minimum_ratio_subset(
    g: Graph, ids: np.ndarray, denominator: Callable[[int], int]
) -> tuple[float, np.ndarray]:
    """Exact minimum of e(S, ~S) / denominator(vol S) over nonempty subsets of ``ids``.

    Position i stands for node ``ids[i]``, with its full-graph degree and the
    bitmask of its neighbors among the positions.  Volume and the inside edge
    count of each subset extend those of the subset without its lowest
    member, so enumeration is 2^len(ids).  Subsets whose denominator is 0
    have no ratio and are skipped.  Ratios compare exactly as integer cross
    products; ties break to the lexicographically smallest membership
    sequence.  Returns the ratio and the minimizing subset's ids, ascending
    when ``ids`` is.
    """
    deg = g.degree[ids].tolist()
    nbr = _neighbor_masks(g, ids.tolist())
    size = 1 << len(deg)
    vol = [0] * size
    within = [0] * size  # doubled count of edges inside the subset
    best_e = best_den = 0
    best_mask = -1
    for s in range(1, size):
        low = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        vol[s] = vol[rest] + deg[low]
        within[s] = within[rest] + 2 * (nbr[low] & rest).bit_count()
        den = denominator(vol[s])
        if den == 0:
            continue
        cut = vol[s] - within[s]
        if best_mask < 0 or cut * best_den < best_e * den:
            best_e, best_den, best_mask = cut, den, s
        elif cut * best_den == best_e * den and _lex_key(s) < _lex_key(best_mask):
            best_mask = s
    witness = ids[list(_lex_key(best_mask))]
    witness.flags.writeable = False
    return best_e / best_den, witness


def brute_force_cheeger_constant(g: Graph) -> CheegerReport:
    """Exact minimum Cheeger ratio over all nonempty proper subsets.

    Enumeration is 2^n; ties break to the lexicographically smallest
    membership sequence.  Graphs above BRUTE_FORCE_CAP nodes are refused.
    """
    n = g.node_count
    if n > BRUTE_FORCE_CAP:
        raise DataError(f"graph too large for brute force ({n} > {BRUTE_FORCE_CAP})")
    total_vol = 2 * g.edge_count
    # the full set is the one subset with min(vol, total - vol) == 0
    value, witness = _minimum_ratio_subset(g, np.arange(n), lambda v: min(v, total_vol - v))
    return CheegerReport(value=value, witness=witness)


def brute_force_local_cheeger_constant(g: Graph, boundary: Iterable[int]) -> CheegerReport:
    """Exact minimum local ratio over all nonempty subsets of the interior."""
    inner = interior(g, boundary)
    m = inner.size
    if m == 0:
        raise DataError("empty interior")
    if m > BRUTE_FORCE_CAP:
        raise DataError(f"interior too large for brute force ({m} > {BRUTE_FORCE_CAP})")
    # positions are interior nodes, so only interior-interior edges are inside
    value, witness = _minimum_ratio_subset(g, inner, lambda vol: vol)
    return CheegerReport(value=value, witness=witness)
