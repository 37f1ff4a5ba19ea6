from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

import dirspec as ds
from dirspec.cheeger import (
    brute_force_cheeger_constant,
    brute_force_local_cheeger_constant,
)
from dirspec.errors import DataError

from conftest import (
    cycle_graph,
    id_set,
    path_graph,
    random_graph_suite,
    slow_cheeger_constant,
    slow_local_cheeger_constant,
    star_graph,
)


def test_cheeger_ratio_examples(two_triangle):
    c4 = cycle_graph(4)
    assert ds.cheeger_ratio(c4, {0, 1}) == 0.5
    assert ds.cheeger_ratio(c4, iter([0, 1])) == 0.5  # an iterator is read once
    k2 = ds.build_graph([("a", "b")])
    assert ds.cheeger_ratio(k2, {0}) == 1.0
    triangle_side = {0, 1, 2}  # labels a, b, c
    assert ds.cheeger_ratio(two_triangle, triangle_side) == 1 / 7


def test_cheeger_ratio_rejects_empty_and_full():
    p3 = path_graph(3)
    with pytest.raises(DataError):
        ds.cheeger_ratio(p3, set())
    with pytest.raises(DataError):
        ds.cheeger_ratio(p3, {0, 1, 2})
    # as id arrays: the full set with a duplicate id, and no ids at all
    with pytest.raises(DataError):
        ds.cheeger_ratio(p3, np.array([0, 1, 2, 2]))
    with pytest.raises(DataError):
        ds.cheeger_ratio(p3, np.array([], dtype=np.int64))


def test_cheeger_ratio_complement_symmetry():
    for g in random_graph_suite(10, (4, 9), seed_base=800):
        rng = np.random.default_rng(g.node_count)
        size = 1 + int(rng.integers(0, g.node_count - 1))
        s = set(int(v) for v in rng.permutation(g.node_count)[:size])
        rest = set(range(g.node_count)) - s
        assert ds.cheeger_ratio(g, s) == ds.cheeger_ratio(g, rest)


def test_local_cheeger_ratio_examples():
    star = star_graph(3)
    b = ds.resolve_boundary(star, "leaves")
    assert ds.local_cheeger_ratio(star, b, {0}) == 1.0

    tree = ds.gen_tree(3, 2)
    bt = ds.resolve_boundary(tree, "leaves")
    assert ds.local_cheeger_ratio(tree, bt, {0}) == 1.0
    assert ds.local_cheeger_ratio(tree, bt, {0, 1, 2, 3}) == 0.5  # 6 leaf edges / vol 12

    with pytest.raises(DataError, match="boundary"):
        ds.local_cheeger_ratio(tree, bt, {0, 4})
    with pytest.raises(DataError):
        ds.local_cheeger_ratio(tree, bt, set())


def test_brute_force_examples():
    k2 = ds.build_graph([("a", "b")])
    rep = brute_force_cheeger_constant(k2)
    assert rep.value == 1.0

    c4 = cycle_graph(4)
    assert brute_force_cheeger_constant(c4).value == 0.5

    c6 = cycle_graph(6)
    rep6 = brute_force_cheeger_constant(c6)
    assert rep6.value == pytest.approx(1 / 3)
    assert ds.cheeger_ratio(c6, rep6.witness) == rep6.value


def test_brute_force_matches_slow_enumeration():
    for g in random_graph_suite(10, (4, 8), seed_base=900):
        rep = brute_force_cheeger_constant(g)
        best, witness = slow_cheeger_constant(g)
        assert Fraction(rep.value).limit_denominator(10**9) == best
        assert tuple(sorted(rep.witness)) == witness


def test_brute_force_lower_bounds_every_ratio():
    for g in random_graph_suite(6, (5, 9), seed_base=950):
        rep = brute_force_cheeger_constant(g)
        rng = np.random.default_rng(5)
        for _ in range(10):
            size = 1 + int(rng.integers(0, g.node_count - 1))
            s = set(int(v) for v in rng.permutation(g.node_count)[:size])
            assert rep.value <= ds.cheeger_ratio(g, s) + 1e-12


def test_brute_force_size_cap():
    with pytest.raises(DataError, match="too large"):
        brute_force_cheeger_constant(ds.gen_grid(5, 5))


def test_brute_force_witnesses_are_ascending_read_only_int64_ids():
    tree = ds.gen_tree(3, 2)
    reports = [
        brute_force_cheeger_constant(tree),
        brute_force_local_cheeger_constant(tree, ds.resolve_boundary(tree, "leaves")),
    ]
    for rep in reports:
        assert id_set(rep.witness)  # int64, strictly ascending, nonempty
        with pytest.raises(ValueError, match="read-only"):
            rep.witness[0] = 0


def test_brute_force_local_examples():
    star = star_graph(3)
    rep = brute_force_local_cheeger_constant(star, ds.resolve_boundary(star, "leaves"))
    assert rep.value == 1.0
    assert id_set(rep.witness) == {0}

    p4 = path_graph(4)
    rep = brute_force_local_cheeger_constant(p4, [0, 3])
    assert rep.value == 0.5  # min(2/2, 2/2, 2/4) over {1},{2},{1,2}
    assert id_set(rep.witness) == {1, 2}

    tree = ds.gen_tree(3, 2)
    rep = brute_force_local_cheeger_constant(tree, ds.resolve_boundary(tree, "leaves"))
    assert rep.value == 0.5
    assert id_set(rep.witness) == {0, 1, 2, 3}


def test_brute_force_local_matches_slow_enumeration():
    for g in random_graph_suite(8, (5, 9), seed_base=1200):
        rng = np.random.default_rng(g.node_count + 3)
        bsize = 1 + int(rng.integers(0, g.node_count - 2))
        b = [int(v) for v in rng.permutation(g.node_count)[:bsize]]
        rep = brute_force_local_cheeger_constant(g, b)
        best, witness = slow_local_cheeger_constant(g, ds.interior(g, b))
        assert Fraction(rep.value).limit_denominator(10**9) == best
        assert tuple(sorted(rep.witness)) == witness


def test_cheeger_inequality_small_graphs():
    # 2h >= lambda >= h^2/2 - 1e-9 on seeded random connected graphs, n <= 10
    for g in random_graph_suite(40, (4, 10), seed_base=1000):
        h = brute_force_cheeger_constant(g).value
        lam = ds.gaps(g, ())[0]
        assert 2 * h >= lam
        assert lam >= h * h / 2 - 1e-9


def test_local_cheeger_inequality_small_graphs():
    rng = np.random.default_rng(7)
    checked = 0
    i = 0
    while checked < 40:
        i += 1
        n = 5 + i % 9
        g = ds.gen_random_connected(n, 0.4, seed=3000 + i)
        bsize = 1 + int(rng.integers(0, n - 2))
        b = [int(v) for v in rng.permutation(n)[:bsize]]
        h_local = brute_force_local_cheeger_constant(g, b).value
        lam = ds.smallest_eigenpairs(ds.build_dirichlet_laplacian(g, b), 1).eigenvalues[0]
        # upper side allows one eigensolver tolerance of slack (equality cases)
        assert h_local >= lam - 1e-9
        assert lam >= h_local * h_local / 2 - 1e-9
        checked += 1
