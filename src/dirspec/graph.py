"""Undirected graph core: compressed adjacency plus cut, component, and distance primitives.

Graphs are immutable once built.  Node identities are dense integers
0..n-1 assigned in first-seen order over the cleaned edge stream, with the
original string labels kept alongside, so identical inputs always produce
identical graphs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import DataError

NodeSet = frozenset[int]

BOUNDARY_POLICIES = (
    "degree-one",
    "leaves",
    "grid-perimeter",
    "radius-cut",
    "explicit-list",
)


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

    @cached_property
    def label_to_id(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def node_mask(self, s: Iterable[int], allow_empty: bool = False) -> np.ndarray:
        """Boolean membership mask of a node set over the ids; duplicates collapse.

        Raises DataError for an empty set unless ``allow_empty``, and for ids
        outside 0..n-1.  Negative ids are checked before indexing, because
        the mask would otherwise wrap them around to nodes counted from the end.
        """
        if isinstance(s, np.ndarray):
            ids = s.astype(np.int64, copy=False)
        else:
            ids = np.fromiter(s, dtype=np.int64)
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
    return Graph(
        tuple(labels),
        indptr,
        indices,
        CleaningReport(duplicates=duplicates, self_loops=self_loops),
    )


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


def one_median(g: Graph) -> int:
    """Node minimizing total hop distance to all nodes; ties go to the smallest id.

    Used as the deterministic stand-in for a network's center of mass.
    """
    n = g.node_count
    sums = np.empty(n)
    chunk = 1024
    for start in range(0, n, chunk):
        idx = np.arange(start, min(start + chunk, n))
        dist = csgraph.dijkstra(
            g.adjacency_matrix, directed=False, indices=idx, unweighted=True
        )
        if np.isinf(dist).any():
            raise DataError("one_median requires a connected graph")
        sums[idx] = dist.sum(axis=1)
    return int(np.argmin(sums))


def eccentricity(g: Graph, v: int) -> int:
    dist = distances_from(g, v)
    if np.isinf(dist).any():
        raise DataError("eccentricity requires a connected graph")
    return int(dist.max())


def ball(g: Graph, center: int, radius: int) -> NodeSet:
    """All nodes within the given hop distance of the center (BFS ball)."""
    if radius < 0:
        raise DataError("radius must be >= 0")
    if not 0 <= center < g.node_count:
        raise DataError("node id out of range for this graph")
    dist = csgraph.dijkstra(
        g.adjacency_matrix,
        directed=False,
        indices=center,
        unweighted=True,
        limit=float(radius),
    )
    return frozenset(int(i) for i in np.flatnonzero(dist <= radius))


def induced_subgraph(g: Graph, nodes: Iterable[int]) -> Graph:
    """Subgraph induced by the node set; labels are preserved, ids are re-densified.

    Nodes with no surviving edge are dropped (Graph cannot hold isolated nodes).
    """
    inset = g.node_mask(nodes)
    pairs = [
        (g.labels[u], g.labels[v])
        for u in np.flatnonzero(inset)
        for v in g.neighbors(u)
        if v > u and inset[v]
    ]
    if not pairs:
        raise DataError("induced subgraph has no edges")
    return build_graph(pairs)


def largest_component(g: Graph) -> Graph:
    """The induced subgraph of the largest connected component (ties: lowest label id)."""
    n_comp, labels = csgraph.connected_components(g.adjacency_matrix, directed=False)
    if n_comp == 1:
        return g
    counts = np.bincount(labels)
    keep = np.flatnonzero(labels == int(np.argmax(counts)))
    return induced_subgraph(g, keep)


@dataclass(frozen=True)
class BoundarySpec:
    """A boundary policy together with the resolved node set it selects."""

    policy: str
    nodes: NodeSet

    def interior(self, g: Graph) -> np.ndarray:
        """Ascending ids of the non-boundary nodes."""
        mask = np.ones(g.node_count, dtype=bool)
        for v in self.nodes:
            mask[v] = False
        return np.flatnonzero(mask)


def resolve_boundary(
    g: Graph,
    policy: str,
    *,
    parent: Graph | None = None,
    parent_nodes: Iterable[int] | None = None,
    explicit: Iterable[int] | None = None,
) -> BoundarySpec:
    """Resolve a boundary policy to a concrete node set.

    Policies:
      degree-one      nodes of degree 1 (stubs that presumably continue outside)
      leaves          alias of degree-one, for trees
      grid-perimeter  nodes of degree < 4 in a 4-neighbor lattice
      radius-cut      for a subgraph of ``parent`` induced by ``parent_nodes``:
                      nodes with a parent edge leaving the set, plus nodes of
                      parent degree 1
      explicit-list   the given ids, validated

    A boundary covering every node is an error ("no interior"); an empty
    boundary is permitted with a warning since the Dirichlet operator then
    degenerates to the full Laplacian.
    """
    if policy not in BOUNDARY_POLICIES:
        raise DataError(f"unknown boundary policy: {policy!r}")

    if policy in ("degree-one", "leaves"):
        nodes = frozenset(int(v) for v in np.flatnonzero(g.degree == 1))
    elif policy == "grid-perimeter":
        nodes = frozenset(int(v) for v in np.flatnonzero(g.degree < 4))
    elif policy == "radius-cut":
        if parent is None or parent_nodes is None:
            raise DataError("radius-cut boundary requires the parent graph and node set")
        inset = parent.node_mask(parent_nodes)
        picked = []
        for i, lab in enumerate(g.labels):
            p = parent.label_to_id.get(lab)
            if p is None:
                raise DataError(f"subgraph label {lab!r} not found in parent graph")
            if parent.degree[p] == 1 or not inset[parent.neighbors(p)].all():
                picked.append(i)
        nodes = frozenset(picked)
    else:  # explicit-list
        if explicit is None:
            raise DataError("explicit-list boundary requires the node ids")
        nodes = frozenset(np.flatnonzero(g.node_mask(explicit, allow_empty=True)).tolist())

    if len(nodes) == g.node_count:
        raise DataError(f"no interior: boundary policy {policy!r} selected every node")
    if not nodes:
        warnings.warn(
            "empty boundary: Dirichlet operators will equal the full Laplacian",
            stacklevel=2,
        )
    return BoundarySpec(policy, nodes)
