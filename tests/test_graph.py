from __future__ import annotations

import warnings

import numpy as np
import pytest

import dirspec as ds
from dirspec.errors import DataError
from dirspec.graph import BOUNDARY_POLICIES, _pruned_distance_sums, distances_from

from conftest import (
    complete_graph,
    cycle_graph,
    id_set,
    isp_like_graph,
    path_graph,
    random_graph_suite,
    slow_ball,
    slow_build_graph,
    slow_components,
    slow_distance_sums,
    slow_eccentricity,
    slow_edge_boundary,
    slow_induced_subgraph,
    slow_radius_cut,
    slow_volume,
    star_graph,
)


def test_build_graph_single_edge():
    g = ds.build_graph([("a", "b")])
    assert g.node_count == 2
    assert g.edge_count == 1
    assert g.labels == ("a", "b")


def test_build_graph_cleaning_counts():
    g = ds.build_graph([("a", "b"), ("b", "a"), ("b", "b")])
    assert g.node_count == 2
    assert g.edge_count == 1
    assert g.cleaning.duplicates == 1
    assert g.cleaning.self_loops == 1


def test_build_graph_empty_inputs():
    with pytest.raises(DataError, match="empty graph"):
        ds.build_graph([])
    with pytest.raises(DataError, match="empty graph"):
        ds.build_graph([("x", "x")])


def test_build_graph_first_seen_ids():
    g = ds.build_graph([("c", "a"), ("a", "b")])
    assert g.labels == ("c", "a", "b")
    assert sorted(map(int, g.neighbors(1))) == [0, 2]


@pytest.mark.parametrize("n, seed", [(60, 1), (300, 5), (1000, 2)])
def test_build_graph_matches_slow_builder_on_dirty_streams(n, seed):
    rng = np.random.default_rng(seed)
    edges = sorted(isp_like_graph(n, seed).labeled_edges())
    picks = rng.integers(len(edges), size=(3, n // 10))
    dirty = (
        edges
        + [edges[i] for i in picks[0]]
        + [edges[i][::-1] for i in picks[1]]
        + [(edges[i][0], edges[i][0]) for i in picks[2]]
    )
    order = rng.permutation(len(dirty))
    # a label first seen in a self-loop gets its id from its first real edge
    pairs = [("loop", "loop")] + [dirty[i] for i in order] + [("r0", "loop")]
    g = ds.build_graph(pairs)
    expected = slow_build_graph(pairs)
    assert g == expected
    assert g.cleaning == expected.cleaning
    assert g.cleaning.self_loops == n // 10 + 1
    assert g.labels[-1] == "loop"


def test_grid_node_and_edge_counts():
    g = ds.gen_grid(100, 100)
    assert g.node_count == 10000
    assert g.edge_count == 19800


def test_volume_examples():
    k2 = ds.build_graph([("a", "b")])
    assert ds.volume(k2, {0}) == 1
    c4 = cycle_graph(4)
    assert ds.volume(c4, {0, 1}) == 4
    grid = ds.gen_grid(100, 100)
    assert ds.volume(grid, range(grid.node_count)) == 2 * grid.edge_count == 39600


def test_edge_boundary_examples():
    p3 = path_graph(3)
    assert ds.edge_boundary(p3, {1}) == 2
    c4 = cycle_graph(4)
    assert ds.edge_boundary(c4, {0, 1}) == 2
    # one root subtree of a finite tree is cut by exactly one edge
    tree = ds.gen_tree(3, 3)
    d_root = distances_from(tree, 0)
    d_child = distances_from(tree, 1)
    subtree = {v for v in range(tree.node_count) if d_root[v] == d_child[v] + 1}
    assert 1 in subtree and 0 not in subtree
    assert ds.edge_boundary(tree, subtree) == 1


def test_cut_and_volume_complement_properties():
    for g in random_graph_suite(12, (4, 9), seed_base=300):
        n = g.node_count
        rng = np.random.default_rng(n)
        members = [int(v) for v in rng.permutation(n)[: n // 2 + 1]]
        rest = [v for v in range(n) if v not in set(members)]
        assert ds.edge_boundary(g, members) == ds.edge_boundary(g, rest)
        assert ds.edge_boundary(g, members) == slow_edge_boundary(g, members)
        assert ds.volume(g, members) + ds.volume(g, rest) == 2 * g.edge_count
        assert ds.volume(g, members) == slow_volume(g, members)


def test_components_examples():
    p3 = path_graph(3)
    assert ds.components(p3, {0, 1, 2}) == 1
    assert ds.components(p3, {0, 2}) == 2
    w = ds.gen_whisker(5, 3, 2)
    tips = [int(v) for v in np.flatnonzero(w.degree == 1)]
    assert len(tips) == 3
    assert ds.components(w, tips) == 3
    with pytest.raises(DataError):
        ds.components(p3, set())


def test_components_matches_slow_reference():
    for g in random_graph_suite(8, (5, 9), seed_base=400):
        rng = np.random.default_rng(g.node_count + 17)
        order = [int(v) for v in rng.permutation(g.node_count)]
        for size in range(1, g.node_count + 1):
            members = order[:size]
            assert ds.components(g, members) == slow_components(g, members)


def test_one_median_examples():
    assert ds.one_median(path_graph(3)) == 1
    assert ds.one_median(star_graph(5)) == 0  # hub is first seen
    grid = ds.gen_grid(5, 5)
    sums = slow_distance_sums(grid)
    assert ds.one_median(grid) == sums.index(min(sums)) == 12


def _median_cases():
    yield from random_graph_suite(24, (4, 12), seed_base=800)
    for n in (2, 7, 8, 31, 32):
        yield path_graph(n)
    for n in (3, 8, 13):
        yield cycle_graph(n)
    yield ds.gen_grid(6, 9)
    yield ds.gen_grid(7, 7)
    yield ds.gen_tree(3, 4)
    yield ds.gen_whisker(20, 8, 4)
    yield ds.gen_whisker(6, 3, 2)
    yield ds.build_graph([("leaf0", "hub"), *[("hub", f"leaf{i}") for i in range(1, 9)]])
    yield isp_like_graph(300, seed=5)


def test_one_median_matches_slow_distance_sums():
    for g in _median_cases():
        sums = slow_distance_sums(g)
        assert ds.one_median(g) == sums.index(min(sums)), g


def test_one_median_tie_rules():
    for n in (3, 8, 13):
        assert ds.one_median(cycle_graph(n)) == 0  # every sum ties
    assert ds.one_median(path_graph(8)) == 3  # 3 and 4 tie
    star = ds.build_graph([("leaf0", "hub"), *[("hub", f"leaf{i}") for i in range(1, 9)]])
    assert ds.one_median(star) == star.labels.index("hub") == 1


def test_pruned_distance_sums_drop_only_non_minimizers():
    g = isp_like_graph(300, seed=5)
    sums = np.array(slow_distance_sums(g), dtype=float)
    hub = int(np.argmax(g.degree))
    got = _pruned_distance_sums(g, np.arange(g.node_count), float(sums[hub]))
    done = np.isfinite(got)
    assert (~done).sum() > g.node_count // 2  # pruning drops most sources
    assert np.array_equal(got[done], sums[done])
    assert done[sums == sums.min()].all()
    # a lone source with no bound runs to the end
    for v in (0, hub, g.node_count - 1):
        assert _pruned_distance_sums(g, np.array([v]), np.inf)[0] == sums[v]


def test_one_median_requires_connected():
    for edges in (
        [("a", "b"), ("c", "d")],
        [("h", "a"), ("h", "b"), ("h", "c"), ("x", "y")],  # hub in the large part
        [("a", "b"), ("b", "c"), ("x", "h"), ("h", "y"), ("h", "z"), ("h", "w")],
    ):
        with pytest.raises(DataError, match="connected"):
            ds.one_median(ds.build_graph(edges))


def test_ball_examples():
    p5 = path_graph(5)
    dist = distances_from(p5, 2)
    assert set(np.flatnonzero(dist <= 0)) == {2} == slow_ball(p5, 2, 0)
    assert set(np.flatnonzero(dist <= 1)) == {1, 2, 3} == slow_ball(p5, 2, 1)
    assert int(dist.max()) == slow_eccentricity(p5, 2) == 2
    assert slow_ball(p5, 2, 2) == set(range(5))


def test_ball_monotone_and_stabilizes():
    for g in random_graph_suite(6, (5, 10), seed_base=500):
        dist = distances_from(g, 0)
        assert int(dist.max()) == slow_eccentricity(g, 0)
        prev = frozenset()
        for r in range(g.node_count):
            cur = frozenset(np.flatnonzero(dist <= r).tolist())
            assert cur == slow_ball(g, 0, r)
            assert prev <= cur
            prev = cur
        assert prev == frozenset(range(g.node_count))


def test_resolve_boundary_degree_one_and_leaves():
    tree = ds.gen_tree(3, 3)
    b = ds.resolve_boundary(tree, "leaves")
    expected = frozenset(int(v) for v in np.flatnonzero(tree.degree == 1))
    assert id_set(b) == expected
    assert id_set(ds.resolve_boundary(tree, "degree-one")) == expected
    for g in random_graph_suite(6, (4, 9), seed_base=600):
        b = ds.resolve_boundary(g, "degree-one")
        assert id_set(b) == frozenset(int(v) for v in np.flatnonzero(g.degree == 1))


def test_resolve_boundary_grid_perimeter():
    grid = ds.gen_grid(100, 100)
    b = ds.resolve_boundary(grid, "grid-perimeter")
    assert len(b) == 4 * 100 - 4 == 396
    assert ds.interior(grid, b).size == 98 * 98


def test_resolve_boundary_no_interior():
    # a policy may select every node; each consumer rejects the empty interior
    k2 = ds.build_graph([("a", "b")])
    cases = [(k2, "degree-one"), (ds.gen_grid(2, 2), "grid-perimeter")]
    for g, policy in cases:
        b = ds.resolve_boundary(g, policy)
        assert b.tolist() == list(range(g.node_count))
        with pytest.raises(DataError, match="empty interior: boundary covers every node"):
            ds.build_dirichlet_laplacian(g, b)
        with pytest.raises(DataError, match="sweep requires at least two interior nodes"):
            ds.sweep(g, b)
        with pytest.raises(DataError, match="empty interior"):
            ds.brute_force_local_cheeger_constant(g, b)


def test_resolve_boundary_empty_is_silent(two_triangle):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = ds.resolve_boundary(two_triangle, "degree-one")
    assert b.dtype == np.int64 and b.size == 0 and not b.flags.writeable


def test_resolve_boundary_explicit():
    p5 = path_graph(5)
    boundary = [4, 0]  # a boundary given by its ids
    assert list(ds.interior(p5, boundary)) == [1, 2, 3]
    assert ds.build_dirichlet_laplacian(p5, boundary).index_map.tolist() == [1, 2, 3]
    with pytest.raises(DataError, match="out of range"):
        ds.build_dirichlet_laplacian(p5, [9])
    with pytest.raises(DataError, match="unknown boundary policy"):
        ds.resolve_boundary(p5, "perimeter")
    for gone in ("radius-cut", "explicit-list"):
        with pytest.raises(DataError, match="unknown boundary policy"):
            ds.resolve_boundary(p5, gone)


def test_boundary_nodes_are_ascending_read_only_int64_ids():
    w = ds.gen_whisker(6, 2, 3)
    members = np.flatnonzero(distances_from(w, ds.one_median(w)) <= 2)
    graphs = (w, ds.gen_tree(3, 3), ds.gen_grid(5, 6))
    boundaries = [ds.resolve_boundary(g, policy) for g, policy in zip(graphs, BOUNDARY_POLICIES)]
    assert BOUNDARY_POLICIES == ("degree-one", "leaves", "grid-perimeter")
    boundaries.append(ds.radius_cut(w, members[::-1])[1])
    for boundary in boundaries:
        assert boundary.size > 0 and id_set(boundary)  # id_set: int64, strictly ascending
        with pytest.raises(ValueError, match="read-only"):
            boundary[0] = boundary[-1]
    # a caller's id list may repeat and be unordered: the operator is the same
    p9 = path_graph(9)
    given = ds.build_dirichlet_laplacian(p9, [7, 2, 7, 0, 2])
    clean = ds.build_dirichlet_laplacian(p9, np.array([0, 2, 7]))
    assert given.index_map.tolist() == clean.index_map.tolist() == [1, 3, 4, 5, 6, 8]
    assert (given.matrix != clean.matrix).nnz == 0


@pytest.mark.parametrize(
    "ids, match",
    [
        ([0.7], "integers"),
        (np.array([1.9]), "integers"),
        (["1"], "integers"),  # a label, not the id 1
        ([True, False], "boolean"),
        ([True, 1], "boolean"),
        ([0.5, 8.2], "integers"),
        ([2**70], "integers"),
        (np.array([], dtype=float), "integers"),
        ([9], "out of range"),
    ],
    ids=repr,
)
def test_non_integer_node_ids_raise(ids, match):
    g = ds.gen_grid(3, 3)
    with pytest.raises(DataError, match=match):
        ds.volume(g, ids)
    # every function that takes a boundary checks its ids where it uses them
    for takes_boundary in (
        lambda b: ds.build_dirichlet_laplacian(g, b),
        lambda b: ds.reattach_boundary(g, b, []),
        lambda b: ds.local_cheeger_ratio(g, b, [4]),
        lambda b: ds.brute_force_local_cheeger_constant(g, b),
        lambda b: ds.sweep(g, b),
    ):
        with pytest.raises(DataError, match=match):
            takes_boundary(ids)
    # integer ids of any width, in any container, are accepted
    for ok in ([0, 8], (0, 8), {0, 8}, np.array([0, 8], dtype=np.uint8), [np.int32(0), 8]):
        assert ds.volume(g, ok) == 4


def test_resolve_boundary_radius_cut():
    w = ds.gen_whisker(6, 2, 3)
    center = ds.one_median(w)
    members = slow_ball(w, center, 2)
    sub, boundary = ds.radius_cut(w, members)
    assert sub == ds.induced_subgraph(w, members)
    assert id_set(boundary) == slow_radius_cut(sub, w, members)
    # at full radius the rule degenerates to the degree-one policy
    full = slow_ball(w, center, slow_eccentricity(w, center))
    sub_full, b_full = ds.radius_cut(w, full)
    deg1 = frozenset(int(v) for v in np.flatnonzero(sub_full.degree == 1))
    assert id_set(b_full) == deg1


def test_radius_cut_on_sets_that_are_not_balls():
    grid = ds.gen_grid(4, 5)
    cases = [
        (grid, [0, 1, 2, 6, 18]),  # 18 has no neighbor inside and is dropped
        (grid, [13, 12, 8, 7, 3, 2]),  # descending
        (grid, [5, 5, 10, 6, 10, 11]),  # duplicated
        (path_graph(6), [0, 1, 3, 4]),  # two components
    ]
    for g in random_graph_suite(6, (6, 12), seed_base=1700):
        rng = np.random.default_rng(g.node_count)
        cases.append((g, rng.permutation(g.node_count)[: g.node_count // 2 + 1]))
    for g, members in cases:
        try:
            expected = ds.induced_subgraph(g, members)
        except DataError:
            with pytest.raises(DataError, match="no edges"):
                ds.radius_cut(g, members)
            continue
        sub, boundary = ds.radius_cut(g, members)
        assert sub == expected == slow_induced_subgraph(g, members)
        assert id_set(boundary) == slow_radius_cut(sub, g, members)
    sub, _ = ds.radius_cut(grid, [0, 1, 2, 6, 18])
    assert "18" not in sub.labels and sub.node_count == 4


@pytest.mark.parametrize(
    "g",
    [
        ds.gen_grid(20, 20),
        ds.gen_tree(3, 6),
        ds.gen_whisker(20, 8, 4),
        ds.gen_random_connected(60, 0.08, seed=3),
        isp_like_graph(300, seed=5),
    ],
    ids=["grid", "tree", "whisker", "random", "isp"],
)
def test_balls_subgraphs_and_radius_cut_match_slow_references(g):
    center = ds.one_median(g)
    dist = distances_from(g, center)
    assert int(dist.max()) == slow_eccentricity(g, center)
    for r in range(1, int(dist.max()) + 1):
        members = np.flatnonzero(dist <= r)
        assert frozenset(members.tolist()) == slow_ball(g, center, r)
        sub, boundary = ds.radius_cut(g, members)
        assert sub == ds.induced_subgraph(g, members) == slow_induced_subgraph(g, members)
        assert id_set(boundary) == slow_radius_cut(sub, g, members)


def test_is_connected_matches_bfs():
    for g in random_graph_suite(6, (4, 8), seed_base=700):
        reached = slow_ball(g, 0, g.node_count)
        assert ds.is_connected(g) == (len(reached) == g.node_count)
    assert not ds.is_connected(ds.build_graph([("a", "b"), ("c", "d")]))


def test_largest_component():
    g = ds.build_graph([("a", "b"), ("b", "c"), ("x", "y")])
    big = ds.largest_component(g)
    assert big.node_count == 3
    assert set(big.labels) == {"a", "b", "c"}
    # first-seen ids follow the component's edges, not the input order
    g = ds.build_graph([("p", "q"), ("a", "b"), ("c", "d"), ("a", "d"), ("b", "c")])
    big = ds.largest_component(g)
    assert big == slow_induced_subgraph(g, range(2, 6))
    assert big.labels == ("a", "b", "d", "c")


def test_induced_subgraph_preserves_labels():
    c6 = cycle_graph(6)
    sub = ds.induced_subgraph(c6, {0, 1, 2})
    assert sub.labeled_edges() == {("0", "1"), ("1", "2")}
    with pytest.raises(DataError, match="no edges"):
        ds.induced_subgraph(c6, {0, 2, 4})


def test_induced_subgraph_matches_label_round_trip():
    for g in [*random_graph_suite(16, (5, 14), seed_base=900), isp_like_graph(200, seed=2)]:
        rng = np.random.default_rng(g.node_count)
        for size in (2, g.node_count // 2, g.node_count - 1, g.node_count):
            members = rng.permutation(g.node_count)[:size]
            try:
                expected = slow_induced_subgraph(g, members)
            except DataError:
                with pytest.raises(DataError, match="no edges"):
                    ds.induced_subgraph(g, members)
                continue
            sub = ds.induced_subgraph(g, members)
            assert sub == expected
            assert sub.cleaning == expected.cleaning
            assert sub.labeled_edges() == expected.labeled_edges()


def test_complete_graph_volume_degrees():
    k4 = complete_graph(4)
    assert list(k4.degree) == [3, 3, 3, 3]
    assert ds.volume(k4, {0, 1}) == 6
