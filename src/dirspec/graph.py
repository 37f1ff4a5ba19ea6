"""Undirected graph core: compressed adjacency plus cut, component, and distance primitives.

Graphs are immutable once built.  Node identities are dense integers
0..n-1 assigned in first-seen order over the cleaned edge stream, with the
original string labels kept alongside, so identical inputs always produce
identical graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import DataError

BOUNDARY_POLICIES = ("degree-one", "leaves", "grid-perimeter")

MEDIAN_BLOCK = 256  # sources per BFS block of one_median


@dataclass(frozen=True)
class CleaningReport:
    """Counts of edges dropped while canonicalizing raw input."""

    duplicates: int = 0
    self_loops: int = 0


class Graph:
    """Immutable simple undirected graph in compressed (CSR-style) adjacency form.

    Construct via :func:`build_graph` or the generators in :mod:`dirspec.ingest`;
    the constructor itself assumes already-canonical arrays.
    """

    def __init__(
        self,
        labels: tuple[str, ...],
        indptr: np.ndarray,
        indices: np.ndarray,
        cleaning: CleaningReport = CleaningReport(),
    ):
        self.labels = labels
        self.indptr = indptr
        self.indices = indices
        self.cleaning = cleaning
        self.degree = np.diff(indptr)

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def node_mask(self, s: Iterable[int], allow_empty: bool = False) -> np.ndarray:
        """Boolean membership mask of a node set over the ids; duplicates collapse.

        The set must hold integer ids: a float, a string (a label is not its
        id), an integer past int64 or a boolean raises DataError, as do a
        boolean array, whose values would read as the ids 0 and 1, an empty
        set unless ``allow_empty``, and ids outside 0..n-1, negative ones
        included: the mask would wrap them around to nodes counted from the end.
        """
        if not isinstance(s, np.ndarray):
            s = list(s)
            if any(isinstance(v, (bool, np.bool_)) for v in s):
                raise DataError("boolean given as a node id; pass node ids")
            s = np.array(s) if s else np.empty(0, dtype=np.int64)
        if s.dtype == bool:
            raise DataError("boolean array given as a node set; pass node ids")
        if s.dtype.kind not in "iu":  # uint64 past int64 wraps negative: out of range
            raise DataError(f"node ids must be 64-bit integers, not {s.dtype}")
        ids = s.astype(np.int64, copy=False)
        if ids.size == 0:
            if not allow_empty:
                raise DataError("empty node set")
        elif ids.min() < 0 or ids.max() >= self.node_count:
            raise DataError("node id out of range for this graph")
        mask = np.zeros(self.node_count, dtype=bool)
        mask[ids] = True
        return mask

    @cached_property
    def adjacency_matrix(self) -> sp.csr_matrix:
        data = np.ones(self.indices.size, dtype=np.int8)
        return sp.csr_matrix(
            (data, self.indices, self.indptr),
            shape=(self.node_count, self.node_count),
        )

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as parallel arrays with u < v, each edge once."""
        rows = np.repeat(np.arange(self.node_count), self.degree)
        keep = rows < self.indices
        return rows[keep], self.indices[keep]

    def labeled_edges(self) -> frozenset[tuple[str, str]]:
        """Edges as label pairs, each pair sorted; identity of the labeled graph."""
        eu, ev = self.edge_arrays
        return frozenset(
            tuple(sorted((self.labels[u], self.labels[v]))) for u, v in zip(eu, ev)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.labels == other.labels
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:
        return f"Graph(nodes={self.node_count}, edges={self.edge_count})"


def build_graph(edge_pairs: Iterable[Sequence[str]]) -> Graph:
    """Build a canonical Graph from raw (label, label) pairs.

    Self-loops and duplicate edges are dropped and counted in the graph's
    cleaning report.  Labels only receive ids when they appear in a
    surviving edge, so the graph never contains isolated nodes.
    """
    label_ids: dict[str, int] = {}
    stream = np.fromiter(
        (
            label_ids.setdefault(str(lab), len(label_ids))
            for pair in edge_pairs
            for lab in (pair[0], pair[1])
        ),
        dtype=np.int64,
    )
    u, v = stream[0::2], stream[1::2]
    loop = u == v
    u, v = u[~loop], v[~loop]
    # first occurrence of each edge, in stream order
    key = np.minimum(u, v) * len(label_ids) + np.maximum(u, v)
    keep = np.sort(np.unique(key, return_index=True)[1])
    if keep.size == 0:
        raise DataError("empty graph: no edges remain after cleaning")
    cleaning = CleaningReport(
        duplicates=int(u.size - keep.size), self_loops=int(np.count_nonzero(loop))
    )
    return _assemble(u[keep], v[keep], list(label_ids), cleaning)


def _first_seen(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ids of the edges (u[i], v[i]) in order of first appearance in
    the stream u0, v0, u1, v1, ..., and the rank of each id in that order,
    which is its dense id in the graph (entries of absent ids are unset)."""
    values, first = np.unique(np.column_stack((u, v)).ravel(), return_index=True)
    order = values[np.argsort(first)]
    rank = np.empty(int(values[-1]) + 1, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return order, rank


def _assemble(
    u: np.ndarray,
    v: np.ndarray,
    labels: Sequence[str] | None = None,
    cleaning: CleaningReport = CleaningReport(),
    seen: tuple[np.ndarray, np.ndarray] | None = None,
) -> Graph:
    """The Graph of the edges (u[i], v[i]), given as ids.

    The one constructor of canonical graphs: dense ids follow first
    appearance in u0, v0, u1, v1, ..., and each adjacency row is sorted.
    The edges must hold no self-loop and no edge twice.  ``labels[x]``
    names id x (default ``str(x)``).  ``seen`` is ``_first_seen(u, v)``
    when the caller has it already.
    """
    order, rank = _first_seen(u, v) if seen is None else seen
    k = order.size
    rows = rank[np.concatenate((u, v))]
    cols = rank[np.concatenate((v, u))]
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=k), out=indptr[1:])
    if labels is None:
        names = tuple(map(str, order.tolist()))
    else:
        names = tuple(map(labels.__getitem__, order.tolist()))
    return Graph(names, indptr, cols[np.lexsort((cols, rows))], cleaning)


def volume(g: Graph, s: Iterable[int]) -> int:
    """Sum of degrees over the node set."""
    return int(g.degree[g.node_mask(s)].sum())


def edge_boundary(g: Graph, s: Iterable[int]) -> int:
    """Number of edges with exactly one endpoint in the node set."""
    mask = g.node_mask(s, allow_empty=True)
    eu, ev = g.edge_arrays
    return int(np.count_nonzero(mask[eu] != mask[ev]))


def components(g: Graph, s: Iterable[int]) -> int:
    """Number of connected components of the subgraph induced by the node set.

    Counted on the adjacency entries with both endpoints in the set, kept at
    their places in the whole graph, so the cost is linear in the graph and
    no re-indexed submatrix is built.  That matrix is symmetric, so its
    strong components are the undirected ones and scipy builds no transpose
    for them.  Every node outside the set is a singleton there and is
    subtracted.  Float data and the adjacency's own index dtype spare scipy a
    conversion copy per call.
    """
    mask = g.node_mask(s)
    a = g.adjacency_matrix
    keep = np.repeat(mask, g.degree) & mask[a.indices]
    indptr = np.zeros(keep.size + 1, dtype=a.indptr.dtype)
    np.cumsum(keep, out=indptr[1:])
    sub = sp.csr_matrix(
        (np.ones(int(indptr[-1])), a.indices[keep], indptr[a.indptr]), shape=a.shape
    )
    count = csgraph.connected_components(sub, directed=True, connection="strong")[0]
    return int(count) - (g.node_count - int(np.count_nonzero(mask)))


def is_connected(g: Graph) -> bool:
    return int(csgraph.connected_components(g.adjacency_matrix, directed=False)[0]) == 1


def distances_from(g: Graph, source: int) -> np.ndarray:
    """Hop distances from one node to every node (inf where unreachable)."""
    if not 0 <= source < g.node_count:
        raise DataError("node id out of range for this graph")
    return csgraph.dijkstra(
        g.adjacency_matrix, directed=False, indices=source, unweighted=True
    )


def _pruned_distance_sums(g: Graph, sources: np.ndarray, best: float) -> np.ndarray:
    """Total hop distance from each source to all nodes, or inf where pruned.

    One level-synchronous BFS serves every source: row i of the frontier
    matrix holds the nodes that source i reached at the last level, and the
    sparse product ``frontier @ A``, less the nodes already seen, is the next
    level.  A source stops once its lower bound (see :func:`one_median`)
    exceeds ``best`` strictly; ``best`` falls to each exact total found on
    the way.  Raises DataError when a level adds no node to a source that
    has not reached all n.
    """
    n = g.node_count
    a = g.adjacency_matrix
    block = np.arange(sources.size)
    seen = np.zeros((sources.size, n), dtype=bool)
    seen[block, sources] = True
    reached = np.ones(sources.size, dtype=np.int64)
    partial = np.zeros(sources.size, dtype=np.int64)
    sums = np.full(sources.size, np.inf)
    active = np.ones(sources.size, dtype=bool)
    owner, nodes = block, sources
    level = 0
    while active.any():
        # owner stays ascending, so its counts are the frontier's row pointers;
        # int32 data: an int8 product could wrap to 0 and lose the entry
        indptr = np.zeros(sources.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=sources.size), out=indptr[1:])
        frontier = sp.csr_matrix(
            (np.ones(nodes.size, dtype=np.int32), nodes, indptr), shape=(sources.size, n)
        )
        reach = frontier @ a
        level += 1
        owner = np.repeat(block, np.diff(reach.indptr))
        new = ~seen.ravel()[owner * n + reach.indices]
        owner, nodes = owner[new], reach.indices[new]
        seen[owner, nodes] = True
        count = np.bincount(owner, minlength=sources.size)
        if (count[active] == 0).any():
            raise DataError("one_median requires a connected graph")
        reached += count
        partial += level * count
        done = active & (reached == n)
        if done.any():
            sums[done] = partial[done]
            best = min(best, float(partial[done].min()))
            active &= ~done
        active &= partial + (level + 1) * (n - reached) <= best
        keep = active[owner]
        owner, nodes = owner[keep], nodes[keep]
    return sums


def one_median(g: Graph) -> int:
    """Node minimizing total hop distance to all nodes; ties go to the smallest id.

    Used as the deterministic stand-in for a network's center of mass.

    Exact, with pruning (top-1 closeness after Olsen-Labouseur-Hwang, ICDE
    2014, and Bergamini et al., ALENEX 2016).  A BFS from the highest-degree
    node gives a first upper bound ``best`` on the minimum; then sources run
    in blocks of MEDIAN_BLOCK, all of a block's BFS levels at once.  After
    level l a source that has reached r of the n nodes with partial distance
    sum P has total at least P + (l + 1)(n - r), since every node not yet
    reached is at least l + 1 hops away.  A source is dropped only when that
    bound is strictly greater than ``best``, which is always some node's
    exact total and so never below the minimum.  Every minimizer's bound
    stays at or below its own total, the minimum, so every minimizer runs to
    the end with its exact total, and the smallest such id wins.
    Raises DataError for a disconnected graph.
    """
    n = g.node_count
    hub = np.array([int(np.argmax(g.degree))])
    best = float(_pruned_distance_sums(g, hub, np.inf)[0])
    sums = np.empty(n)
    for start in range(0, n, MEDIAN_BLOCK):
        sources = np.arange(start, min(start + MEDIAN_BLOCK, n))
        sums[sources] = _pruned_distance_sums(g, sources, best)
        best = min(best, float(sums[sources].min()))
    return int(np.argmin(sums))


def _induced_edges(g: Graph, inset: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edges of the subgraph induced by a node mask, as arrays of parent ids.

    The kept entries of ``edge_arrays`` run u ascending, then v, which is
    the label-pair stream ``build_graph`` would read for this subgraph.
    """
    eu, ev = g.edge_arrays
    keep = inset[eu] & inset[ev]
    if not keep.any():
        raise DataError("induced subgraph has no edges")
    return eu[keep], ev[keep]


def induced_subgraph(g: Graph, nodes: Iterable[int]) -> Graph:
    """Subgraph induced by the node set; labels are preserved, ids are re-densified
    in first-seen order, exactly as ``build_graph`` would assign them from the
    subgraph's edges listed by (u, v), u < v, ascending.

    Nodes with no surviving edge are dropped (Graph cannot hold isolated nodes).
    """
    return _assemble(*_induced_edges(g, g.node_mask(nodes)), g.labels)


def largest_component(g: Graph) -> Graph:
    """The induced subgraph of the largest connected component (ties: lowest label id)."""
    n_comp, labels = csgraph.connected_components(g.adjacency_matrix, directed=False)
    if n_comp == 1:
        return g
    counts = np.bincount(labels)
    return induced_subgraph(g, np.flatnonzero(labels == int(np.argmax(counts))))


def radius_cut(g: Graph, nodes: Iterable[int]) -> tuple[Graph, np.ndarray]:
    """The subgraph induced by a node set, built as ``induced_subgraph`` builds
    it, and its boundary: the ascending, read-only int64 ids of the subgraph
    nodes with a parent edge leaving the set, plus those of parent degree 1.

    In an induced subgraph a parent edge leaves the set exactly when a node
    has fewer neighbors in the subgraph than in the parent, so the boundary
    is read off the two degree arrays.  The boundary may be empty or cover
    every node; neither warns nor raises here.
    """
    u, v = _induced_edges(g, g.node_mask(nodes))
    seen = _first_seen(u, v)
    sub = _assemble(u, v, g.labels, seen=seen)
    parent_degree = g.degree[seen[0]]
    boundary = np.flatnonzero((sub.degree < parent_degree) | (parent_degree == 1))
    boundary.flags.writeable = False
    return sub, boundary


def interior(g: Graph, boundary: Iterable[int]) -> np.ndarray:
    """Ascending, read-only int64 ids of the nodes not in the boundary."""
    ids = np.flatnonzero(~g.node_mask(boundary, allow_empty=True))
    ids.flags.writeable = False
    return ids


def resolve_boundary(g: Graph, policy: str) -> np.ndarray:
    """Resolve a boundary policy to the ascending, read-only int64 ids it selects.

    Policies:
      degree-one      nodes of degree 1 (stubs that presumably continue outside)
      leaves          alias of degree-one, for trees
      grid-perimeter  nodes of degree < 4 in a 4-neighbor lattice

    The boundary may be empty or cover every node; neither warns nor raises
    here.  Each consumer checks the interior it needs.
    """
    if policy not in BOUNDARY_POLICIES:
        raise DataError(f"unknown boundary policy: {policy!r}")
    if policy in ("degree-one", "leaves"):
        nodes = np.flatnonzero(g.degree == 1)
    else:  # grid-perimeter
        nodes = np.flatnonzero(g.degree < 4)
    nodes.flags.writeable = False
    return nodes
