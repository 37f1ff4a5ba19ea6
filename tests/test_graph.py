from __future__ import annotations

import numpy as np
import pytest

import dirspec as ds
from dirspec.errors import DataError

from conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph_suite,
    slow_components,
    slow_distance_sums,
    slow_edge_boundary,
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
    from dirspec.graph import distances_from

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


def test_one_median_requires_connected():
    g = ds.build_graph([("a", "b"), ("c", "d")])
    with pytest.raises(DataError, match="connected"):
        ds.one_median(g)


def test_ball_examples():
    p5 = path_graph(5)
    assert ds.ball(p5, 2, 0) == {2}
    assert ds.ball(p5, 2, 1) == {1, 2, 3}
    assert ds.ball(p5, 2, ds.eccentricity(p5, 2)) == set(range(5))


def test_ball_monotone_and_stabilizes():
    for g in random_graph_suite(6, (5, 10), seed_base=500):
        prev = frozenset()
        for r in range(g.node_count):
            cur = ds.ball(g, 0, r)
            assert prev <= cur
            prev = cur
        assert prev == frozenset(range(g.node_count))


def test_resolve_boundary_degree_one_and_leaves():
    tree = ds.gen_tree(3, 3)
    b = ds.resolve_boundary(tree, "leaves")
    expected = frozenset(int(v) for v in np.flatnonzero(tree.degree == 1))
    assert b.nodes == expected
    assert ds.resolve_boundary(tree, "degree-one").nodes == expected
    for g in random_graph_suite(6, (4, 9), seed_base=600):
        try:
            b = ds.resolve_boundary(g, "degree-one")
        except DataError:
            continue
        assert b.nodes == frozenset(int(v) for v in np.flatnonzero(g.degree == 1))


def test_resolve_boundary_grid_perimeter():
    grid = ds.gen_grid(100, 100)
    b = ds.resolve_boundary(grid, "grid-perimeter")
    assert len(b.nodes) == 4 * 100 - 4 == 396
    assert b.interior(grid).size == 98 * 98


def test_resolve_boundary_no_interior():
    k2 = ds.build_graph([("a", "b")])
    with pytest.raises(DataError, match="no interior"):
        ds.resolve_boundary(k2, "degree-one")
    with pytest.raises(DataError, match="no interior"):
        ds.resolve_boundary(ds.gen_grid(2, 2), "grid-perimeter")


def test_resolve_boundary_empty_warns(two_triangle):
    with pytest.warns(UserWarning, match="empty boundary"):
        b = ds.resolve_boundary(two_triangle, "degree-one")
    assert b.nodes == frozenset()


def test_resolve_boundary_explicit():
    p5 = path_graph(5)
    b = ds.resolve_boundary(p5, "explicit-list", explicit=[0, 4])
    assert b.nodes == {0, 4}
    assert list(b.interior(p5)) == [1, 2, 3]
    with pytest.raises(DataError, match="out of range"):
        ds.resolve_boundary(p5, "explicit-list", explicit=[9])
    with pytest.raises(DataError, match="unknown boundary policy"):
        ds.resolve_boundary(p5, "perimeter")


def test_resolve_boundary_radius_cut():
    w = ds.gen_whisker(6, 2, 3)
    center = ds.one_median(w)
    members = ds.ball(w, center, 2)
    sub = ds.induced_subgraph(w, members)
    b = ds.resolve_boundary(sub, "radius-cut", parent=w, parent_nodes=members)
    expected = set()
    inset = set(members)
    for i, lab in enumerate(sub.labels):
        p = w.label_to_id[lab]
        if w.degree[p] == 1 or any(int(v) not in inset for v in w.neighbors(p)):
            expected.add(i)
    assert b.nodes == expected
    # at full radius the rule degenerates to the degree-one policy
    full = ds.ball(w, center, ds.eccentricity(w, center))
    sub_full = ds.induced_subgraph(w, full)
    b_full = ds.resolve_boundary(sub_full, "radius-cut", parent=w, parent_nodes=full)
    deg1 = frozenset(int(v) for v in np.flatnonzero(sub_full.degree == 1))
    assert b_full.nodes == deg1


def test_is_connected_matches_bfs():
    for g in random_graph_suite(6, (4, 8), seed_base=700):
        reached = ds.ball(g, 0, g.node_count)
        assert ds.is_connected(g) == (len(reached) == g.node_count)
    assert not ds.is_connected(ds.build_graph([("a", "b"), ("c", "d")]))


def test_largest_component():
    g = ds.build_graph([("a", "b"), ("b", "c"), ("x", "y")])
    big = ds.largest_component(g)
    assert big.node_count == 3
    assert set(big.labels) == {"a", "b", "c"}


def test_induced_subgraph_preserves_labels():
    c6 = cycle_graph(6)
    sub = ds.induced_subgraph(c6, {0, 1, 2})
    assert sub.labeled_edges() == {("0", "1"), ("1", "2")}
    with pytest.raises(DataError, match="no edges"):
        ds.induced_subgraph(c6, {0, 2, 4})


def test_complete_graph_volume_degrees():
    k4 = complete_graph(4)
    assert list(k4.degree) == [3, 3, 3, 3]
    assert ds.volume(k4, {0, 1}) == 6
