from __future__ import annotations

import dataclasses
import math
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import dirspec as ds
from dirspec import spectral
from dirspec.cli import parse_generator_spec
from dirspec.errors import DataError, NumericalError
from dirspec.graph import Graph
from dirspec.spectral import (
    build_dirichlet_laplacian,
    build_normalized_laplacian,
    smallest_eigenpairs,
)

from conftest import (
    complete_graph,
    isp_like_graph,
    path_graph,
    slow_collatz_wielandt,
    slow_dirichlet_laplacian,
    slow_normalized_laplacian,
    star_graph,
)


def test_laplacian_k2_exact():
    g = ds.build_graph([("a", "b")])
    m = build_normalized_laplacian(g).matrix.toarray()
    assert np.array_equal(m, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_p3_entries():
    m = build_normalized_laplacian(path_graph(3)).matrix.toarray()
    off = -1.0 / math.sqrt(2)
    assert m[0, 1] == pytest.approx(off, abs=1e-15)
    assert m[1, 2] == pytest.approx(off, abs=1e-15)
    assert m[0, 2] == 0.0
    assert np.allclose(np.diag(m), 1.0)
    assert np.allclose(m, m.T)


def test_laplacian_tree_interior_entry():
    g = ds.gen_tree(3, 3)
    m = build_normalized_laplacian(g).matrix
    # edge between root (degree 3) and an interior child (degree 3)
    assert m[0, 1] == pytest.approx(-1.0 / 3.0, abs=1e-15)


def test_laplacian_rejects_isolated_node():
    base = path_graph(2)
    labels = base.labels + ("ghost",)
    indptr = np.append(base.indptr, base.indptr[-1])
    g = Graph(labels, indptr, base.indices)
    with pytest.raises(DataError, match="isolated"):
        build_normalized_laplacian(g)


def test_dirichlet_star_and_path_scalar():
    star = star_graph(3)
    b = ds.resolve_boundary(star, "leaves")
    m = build_dirichlet_laplacian(star, b)
    assert m.matrix.shape == (1, 1)
    assert m.matrix[0, 0] == 1.0
    assert list(m.index_map) == [0]

    p3 = path_graph(3)
    m = build_dirichlet_laplacian(p3, [0, 2])
    assert m.matrix.toarray().tolist() == [[1.0]]


def test_dirichlet_tree_uses_full_graph_degrees():
    g = ds.gen_tree(3, 2)
    b = ds.resolve_boundary(g, "leaves")
    m = build_dirichlet_laplacian(g, b)
    expected = np.eye(4)
    for child in (1, 2, 3):
        expected[0, child] = expected[child, 0] = -1.0 / 3.0
    assert np.allclose(m.matrix.toarray(), expected, atol=1e-15)
    assert list(m.index_map) == [0, 1, 2, 3]


def test_dirichlet_empty_interior():
    p3 = path_graph(3)
    with pytest.raises(DataError, match="empty interior"):
        build_dirichlet_laplacian(p3, np.array([0, 1, 2]))


def test_smallest_eigenpairs_exact_spectra():
    k2 = ds.build_graph([("a", "b")])
    res = smallest_eigenpairs(build_normalized_laplacian(k2), 2)
    assert np.allclose(res.eigenvalues, [0.0, 2.0], atol=1e-12)

    # P3 oracle: dense 3x3 eigendecomposition of the explicit matrix
    explicit = np.array(
        [[1, -1 / math.sqrt(2), 0], [-1 / math.sqrt(2), 1, -1 / math.sqrt(2)], [0, -1 / math.sqrt(2), 1]]
    )
    expected = np.linalg.eigvalsh(explicit)
    res = smallest_eigenpairs(build_normalized_laplacian(path_graph(3)), 3)
    assert np.allclose(res.eigenvalues, expected, atol=1e-12)
    assert np.allclose(res.eigenvalues, [0.0, 1.0, 2.0], atol=1e-12)

    res = smallest_eigenpairs(build_normalized_laplacian(complete_graph(4)), 4)
    assert np.allclose(res.eigenvalues, [0.0, 4 / 3, 4 / 3, 4 / 3], atol=1e-12)


def test_smallest_eigenpairs_validation():
    m = build_normalized_laplacian(path_graph(3))
    with pytest.raises(DataError):
        smallest_eigenpairs(m, 0)
    with pytest.raises(DataError):
        smallest_eigenpairs(m, 4)
    # a tolerance that is not finite and positive, on the dense and the
    # shift-invert route: with inf or nan every check would pass
    for g in (path_graph(3), ds.gen_grid(30, 30)):
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DataError, match="tolerance must be finite and positive"):
                smallest_eigenpairs(build_normalized_laplacian(g), 2, tol=tol)


def test_eigen_contract_residuals_orthonormality():
    graphs = [
        path_graph(12),
        complete_graph(6),
        ds.gen_tree(3, 5),
        ds.gen_grid(9, 7),
        ds.gen_whisker(8, 4, 3),
    ]
    for g in graphs:
        m = build_normalized_laplacian(g)
        res = smallest_eigenpairs(m, min(4, m.n))
        assert (res.residuals <= res.tol).all()
        k = res.eigenvectors.shape[1]
        gram = res.eigenvectors.T @ res.eigenvectors
        assert np.abs(gram - np.eye(k)).max() <= 1e-8
        assert res.eigenvalues[0] >= -1e-9
        assert res.eigenvalues[-1] <= 2 + 1e-9
        assert (np.diff(res.eigenvalues) >= 0).all()


def test_iterative_path_contract():
    g = ds.gen_tree(3, 10)  # 3070 nodes
    m = build_normalized_laplacian(g)
    res = smallest_eigenpairs(m, 2)
    assert res.route == "shift-invert"
    assert (res.residuals <= 1e-8).all()
    assert abs(res.eigenvalues[0]) <= 1e-10
    assert res.eigenvalues[1] > 0


def test_auto_route_policy():
    tiny = build_normalized_laplacian(ds.gen_grid(8, 8))
    assert tiny.n == 64
    assert smallest_eigenpairs(tiny, 1).route == "dense"
    small = build_normalized_laplacian(path_graph(12))
    assert smallest_eigenpairs(small, 2).route == "dense"
    # full and near-full spectra take the dense route at any size
    tree = build_normalized_laplacian(ds.gen_tree(3, 5))
    assert tree.n > 64
    assert smallest_eigenpairs(tree, tree.n - 1).route == "dense"
    assert smallest_eigenpairs(tree, tree.n).route == "dense"
    assert smallest_eigenpairs(tree, tree.n - 2).route == "shift-invert"
    big = build_normalized_laplacian(ds.gen_tree(4, 6))
    assert big.n == 1457
    for k in (1, 2):
        assert smallest_eigenpairs(big, k).route == "shift-invert"


AGREE_CASES = (
    (ds.gen_tree(3, 8), "leaves"),
    (ds.gen_grid(24, 24), "grid-perimeter"),
    (ds.gen_whisker(30, 20, 25), "degree-one"),
    (ds.gen_grid(30, 17), "grid-perimeter"),
    (path_graph(500), "degree-one"),
)


def test_dense_and_iterative_agree():
    # every operator with more than DENSE_LIMIT rows takes the shift-invert route
    cases = []
    for g, boundary in AGREE_CASES:
        cases.append(build_normalized_laplacian(g))
        cases.append(build_dirichlet_laplacian(g, ds.resolve_boundary(g, boundary)))
    nondegenerate = 0
    for m in cases:
        assert m.n > 64
        dense_vals, dense_vecs = scipy.linalg.eigh(m.matrix.toarray(), subset_by_index=[0, 2])
        it = smallest_eigenpairs(m, 2)
        assert it.route == "shift-invert"
        assert np.abs(dense_vals[:2] - it.eigenvalues).max() <= 1e-7
        if dense_vals[2] - dense_vals[1] > 1e-6:
            # a unique 2-dimensional eigenspace: both routes must span it, so
            # the cosines of the principal angles between their spans are 1
            nondegenerate += 1
            overlap = dense_vecs[:, :2].T @ it.eigenvectors
            cosines = np.linalg.svd(overlap, compute_uv=False)
            assert np.abs(cosines - 1).max() <= 1e-8
    assert nondegenerate >= 4


def test_missed_eigenvalue_raises(monkeypatch):
    # an eigsh that skips the second eigenpair, as Lanczos can on a repeated
    # eigenvalue: every returned pair still meets its residual tolerance
    real_eigsh = spectral.eigsh

    def skipping_eigsh(a, k, **kwargs):
        vals, vecs = real_eigsh(a, k=k + 1, **kwargs)
        order = np.argsort(vals)
        keep = np.delete(order, 1)
        return vals[keep], vecs[:, keep]

    monkeypatch.setattr(spectral, "eigsh", skipping_eigsh)
    m = build_normalized_laplacian(ds.gen_grid(30, 17))
    with pytest.raises(NumericalError, match="missed eigenvalues: 2 lie below .*only 1"):
        smallest_eigenpairs(m, 2)


def test_missed_eigenvalue_raises_for_one_pair(monkeypatch):
    # an eigsh that returns the second pair in place of the first: its vector
    # changes sign, so no certificate is taken and the inertia count catches it
    real_eigsh = spectral.eigsh

    def second_pair_eigsh(a, k, **kwargs):
        vals, vecs = real_eigsh(a, k=k + 1, **kwargs)
        second = np.argsort(vals)[1:2]
        return vals[second], vecs[:, second]

    monkeypatch.setattr(spectral, "eigsh", second_pair_eigsh)
    g = ds.gen_grid(30, 17)
    m = build_dirichlet_laplacian(g, ds.resolve_boundary(g, "grid-perimeter"))
    with pytest.raises(NumericalError, match="missed eigenvalues: 1 lie below .*only 0"):
        smallest_eigenpairs(m, 1)


def _count_inertia_calls(monkeypatch) -> list[float]:
    # the inertia factor is the one that reuses a supplied elimination order
    calls = []
    real_ldl = spectral._ldl

    def counting(a, shift, order=None):
        if order is not None:
            calls.append(shift)
        return real_ldl(a, shift, order)

    monkeypatch.setattr(spectral, "_ldl", counting)
    return calls


def test_one_pair_certificate_encloses_dirichlet_gap(monkeypatch):
    calls = _count_inertia_calls(monkeypatch)
    for g, boundary in AGREE_CASES:
        m = build_dirichlet_laplacian(g, ds.resolve_boundary(g, boundary))
        res = smallest_eigenpairs(m, 1)
        assert res.route == "shift-invert"
        lo, hi = res.enclosure
        assert lo <= res.eigenvalues[0] <= hi
        assert hi - lo <= res.tol
        dense = np.linalg.eigvalsh(m.matrix.toarray())[0]
        assert lo - 1e-12 <= dense <= hi + 1e-12
    assert calls == []
    # the traditional operator keeps the inertia count for its k=2 solves
    g = AGREE_CASES[0][0]
    res = smallest_eigenpairs(build_normalized_laplacian(g), 2)
    assert res.enclosure is None and len(calls) == 1


@pytest.mark.parametrize(
    "spec, boundary",
    [
        ("grid:100x100", "grid-perimeter"),
        ("tree:4x7", "leaves"),
        ("whisker:20x8x4", "degree-one"),
        ("random:300x0.02", "degree-one"),
    ],
)
def test_collatz_wielandt_oracle_brackets_dirichlet_gap(monkeypatch, spec, boundary):
    g = parse_generator_spec(spec, seed=3)
    b = ds.resolve_boundary(g, boundary)
    interior = ds.interior(g, b)
    assert 0 < interior.size < g.node_count
    a = slow_dirichlet_laplacian(g, interior)
    if spec.startswith("grid"):
        # every interior node has degree 4, so A = I - (P (x) I + I (x) P)/4
        # for the path P on 98 nodes, and its minimum needs only P's top
        path = np.eye(98, k=1) + np.eye(98, k=-1)
        dense_min = 1.0 - np.linalg.eigvalsh(path)[-1] / 2
    else:
        dense_min = float(np.linalg.eigvalsh(a.toarray())[0])
    # whisker:20x8x4 is small enough for the dense route by default; the
    # certificate is taken only by shift-invert, so every case forces it
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 0)
    res = smallest_eigenpairs(build_dirichlet_laplacian(g, b), 1)
    assert res.route == "shift-invert"
    lo, hi = slow_collatz_wielandt(a, res.eigenvectors[:, 0])
    assert lo <= dense_min + 1e-12 and dense_min - 1e-12 <= hi
    assert lo <= smallest_eigenpairs(build_dirichlet_laplacian(g, b), 1).eigenvalues[0] <= hi
    assert hi - lo <= 1e-12
    assert res.enclosure is not None
    assert res.enclosure[0] <= lo and hi <= res.enclosure[1]


def test_disconnected_interior_falls_back_to_inertia_count(monkeypatch):
    # a boundary node at 200 splits the interior of a path in two; the ground
    # state lives on the longer piece and is rounding noise on the other
    g = path_graph(500)
    m = build_dirichlet_laplacian(g, [0, 200, 499])
    calls = _count_inertia_calls(monkeypatch)
    res = smallest_eigenpairs(m, 1)
    assert res.route == "shift-invert"
    assert res.enclosure is None
    assert len(calls) == 1
    dense = np.linalg.eigvalsh(m.matrix.toarray())[0]
    assert abs(res.eigenvalues[0] - dense) <= 1e-10


class _WeakFactor:
    """A SuperLU factor behind a proxy that a weak reference can watch:
    SuperLU objects support neither weak references nor GC tracking."""

    def __init__(self, lu):
        self._lu = lu

    def solve(self, b):
        return self._lu.solve(b)

    perm_c = property(lambda self: self._lu.perm_c)
    perm_r = property(lambda self: self._lu.perm_r)
    L = property(lambda self: self._lu.L)
    U = property(lambda self: self._lu.U)


def _factors_alive_at_each_factor(monkeypatch) -> list[list[int]]:
    # for every factor made, the earlier factors still alive at that moment
    made, alive = [], []
    real_splu = spectral.splu

    def tracking(*args, **kwargs):
        alive.append([i for i, ref in enumerate(made) if ref() is not None])
        f = _WeakFactor(real_splu(*args, **kwargs))
        made.append(weakref.ref(f))
        return f

    monkeypatch.setattr(spectral, "splu", tracking)
    return alive


@pytest.mark.parametrize("case", ["k2", "k1-split-interior"])
def test_a_solve_holds_one_factor_at_a_time(monkeypatch, case):
    # the Lanczos factor is freed before the inertia factor is made, so at
    # most one factor, and the L and U copies that reading its pivots makes,
    # is alive at any time
    if case == "k2":
        m, k = build_normalized_laplacian(ds.gen_grid(30, 17)), 2
    else:  # the split interior of test_disconnected_interior_falls_back_to_inertia_count
        m, k = build_dirichlet_laplacian(path_graph(500), [0, 200, 499]), 1
    alive = _factors_alive_at_each_factor(monkeypatch)
    res = smallest_eigenpairs(m, k)
    assert res.route == "shift-invert" and res.enclosure is None
    assert alive == [[], []]


def test_positive_vector_of_wrong_component_raises(monkeypatch):
    # on a split interior, an eigsh that returns the ground state of the
    # shorter piece, plus 1e-12 times that of the longer one: the vector is
    # positive and meets its residual, but its enclosure's lower end is the
    # longer piece's smaller eigenvalue, so the inertia count must run
    g = path_graph(500)
    m = build_dirichlet_laplacian(g, [0, 200, 499])
    dense = m.matrix.toarray()
    short, long = np.arange(199), np.arange(199, m.n)
    short_val, short_vecs = np.linalg.eigh(dense[np.ix_(short, short)])
    long_val, long_vecs = np.linalg.eigh(dense[np.ix_(long, long)])
    assert long_val[0] < short_val[0] - 1e-6
    x = np.empty(m.n)
    x[short] = np.abs(short_vecs[:, 0])
    x[long] = 1e-12 * np.abs(long_vecs[:, 0])
    x /= np.linalg.norm(x)
    monkeypatch.setattr(spectral, "eigsh", lambda a, k, **kw: (short_val[:1], x[:, None]))
    calls = _count_inertia_calls(monkeypatch)
    with pytest.raises(NumericalError, match="missed eigenvalues: 1 lie below .*only 0"):
        smallest_eigenpairs(m, 1)
    assert len(calls) == 1


def test_positive_off_diagonal_falls_back_to_inertia_count(monkeypatch):
    # one flipped edge pair makes the matrix no Z-matrix: its ground state is
    # still sign-definite, but Collatz-Wielandt no longer applies
    g = ds.gen_grid(12, 12)
    a = build_dirichlet_laplacian(g, ds.resolve_boundary(g, "grid-perimeter")).matrix.tolil()
    a[0, 1] = a[1, 0] = 0.05
    m = spectral.SymmetricMatrix(a.tocsr(), np.arange(a.shape[0]))
    assert m.n > spectral.DENSE_LIMIT
    calls = _count_inertia_calls(monkeypatch)
    res = smallest_eigenpairs(m, 1)
    assert res.route == "shift-invert"
    assert res.enclosure is None
    assert len(calls) == 1
    x = res.eigenvectors[:, 0]
    assert (x > 0).all() or (x < 0).all()


@pytest.mark.parametrize(
    "make, boundary",
    [
        (lambda: ds.gen_grid(12, 12), "grid-perimeter"),
        (lambda: ds.gen_tree(3, 4), "leaves"),
        (lambda: ds.gen_whisker(10, 5, 3), "degree-one"),
        (lambda: isp_like_graph(200, seed=3), "degree-one"),
    ],
    ids=["grid", "tree", "whisker", "isp"],
)
def test_ldl_inertia_equals_dense_count(make, boundary):
    # at every shift midway between consecutive distinct eigenvalues, the
    # negative pivots of the LDL^T factor count the eigenvalues below it, in
    # its own minimum-degree order and in the order of a solve's factor
    g = make()
    b = ds.resolve_boundary(g, boundary)
    for m in (build_normalized_laplacian(g), build_dirichlet_laplacian(g, b)):
        a = m.matrix
        dense = np.linalg.eigvalsh(a.toarray())
        step = np.flatnonzero(np.diff(dense) > 1e-8)
        assert step.size >= 6
        solve_lu = spectral._ldl(a, spectral.SHIFT)
        order = np.argsort(solve_lu.perm_c)
        for mu in (dense[step] + dense[step + 1]) / 2:
            want = int((dense < mu).sum())
            assert int((spectral._ldl(a, mu).U.diagonal() < 0).sum()) == want
            lu = spectral._ldl(a, mu, order)
            assert int((lu.U.diagonal() < 0).sum()) == want
            assert lu.L.nnz + lu.U.nnz == solve_lu.L.nnz + solve_lu.U.nnz


def test_unreachable_tolerance_raises_with_residual():
    for g in (path_graph(12), ds.gen_grid(30, 17)):
        m = build_normalized_laplacian(g)
        with pytest.raises(
            NumericalError, match=r"eigenpair residual \d\.\d{3}e-\d+ exceeds tolerance 1\.000e-30"
        ):
            smallest_eigenpairs(m, 2, tol=1e-30)


def test_trivial_eigenpair_annihilated():
    for g in (ds.gen_grid(8, 8), ds.gen_whisker(7, 3, 4), ds.gen_tree(4, 3)):
        lap = build_normalized_laplacian(g).matrix
        v = np.sqrt(g.degree.astype(float))
        assert np.linalg.norm(lap @ v) <= 1e-10 * np.linalg.norm(v)


def test_spectral_gap_examples():
    k2 = ds.build_graph([("a", "b")])
    assert ds.gaps(k2, ())[0] == pytest.approx(2.0, abs=1e-12)
    tree = ds.gen_tree(3, 10)
    gap = ds.gaps(tree, ())[0]
    assert gap < 1e-3  # Cheeger bound: cutting one root branch gives h <= 1/2045


def test_spectral_gap_disconnected_handling():
    g = ds.build_graph([("a", "b"), ("b", "c"), ("x", "y")])
    gap = ds.gaps(ds.largest_component(g), ())[0]  # P3
    assert gap == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(NumericalError, match="unexpected spectrum"):
        ds.gaps(g, ())


def test_dirichlet_gap_examples():
    star = star_graph(3)
    m = build_dirichlet_laplacian(star, ds.resolve_boundary(star, "leaves"))
    assert smallest_eigenpairs(m, 1).eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    tree = ds.gen_tree(3, 2)
    m = build_dirichlet_laplacian(tree, ds.resolve_boundary(tree, "leaves"))
    gap = smallest_eigenpairs(m, 1).eigenvalues[0]
    # closed form: symmetric 2x2 reduction gives (1 - gap)^2 = 1/3
    assert gap == pytest.approx(1.0 - 1.0 / math.sqrt(3), abs=1e-10)


def test_grid_gaps_match_reported_values():
    g = ds.gen_grid(100, 100)
    b = ds.resolve_boundary(g, "grid-perimeter")
    trad = ds.gaps(g, ())[0]
    diri = smallest_eigenpairs(build_dirichlet_laplacian(g, b), 1).eigenvalues[0]
    assert trad == pytest.approx(0.00025, abs=3e-5)
    assert diri == pytest.approx(0.00050, abs=5e-5)
    # the interior operator is exactly separable, so this form is exact
    assert diri == pytest.approx(1 - math.cos(math.pi / 99), abs=1e-9)
    assert diri > trad


ORDER_CASES = (
    (lambda: ds.gen_grid(30, 17), "grid-perimeter"),
    (lambda: ds.gen_tree(3, 8), "leaves"),
    (lambda: isp_like_graph(400, seed=3), "degree-one"),
)


def _spy_ldl_orders(monkeypatch) -> list:
    # the order argument of every factor, None for a minimum-degree one
    orders = []
    real_ldl = spectral._ldl

    def spying(a, shift, order=None):
        orders.append(order)
        return real_ldl(a, shift, order)

    monkeypatch.setattr(spectral, "_ldl", spying)
    return orders


@pytest.mark.parametrize("certificate", ["enclosure", "inertia-k2", "inertia-k1"])
@pytest.mark.parametrize("make, boundary", ORDER_CASES, ids=["grid", "tree", "isp"])
def test_supplied_order_matches_own_order(monkeypatch, make, boundary, certificate):
    # a random permutation is a poor elimination order, but any order must
    # give the same eigenpairs: its factor works in the permuted basis, and
    # the solve maps back
    g = make()
    m = build_dirichlet_laplacian(g, ds.resolve_boundary(g, boundary))
    ordered = dataclasses.replace(m, order=np.random.default_rng(5).permutation(m.n))
    k = 2 if certificate == "inertia-k2" else 1
    if certificate == "inertia-k1":
        monkeypatch.setattr(spectral, "_collatz_wielandt", lambda a, x, ax: None)
    plain = smallest_eigenpairs(m, k)
    orders = _spy_ldl_orders(monkeypatch)
    given = smallest_eigenpairs(ordered, k)
    assert plain.route == given.route == "shift-invert"
    assert np.array_equal(np.sort(plain.order), np.arange(m.n))
    assert given.order is ordered.order
    if certificate == "enclosure":
        assert plain.enclosure is not None and given.enclosure is not None
        assert [o is ordered.order for o in orders] == [True]
    else:
        assert plain.enclosure is None and given.enclosure is None
        assert [o is ordered.order for o in orders] == [True, True]  # the inertia count's too
    assert np.abs(plain.eigenvalues - given.eigenvalues).max() <= 1e-12
    dense = np.linalg.eigvalsh(m.matrix.toarray())
    simple = np.diff(dense) > 1e-6
    for i in range(k):
        if simple[i] and (i == 0 or simple[i - 1]):
            cosine = plain.eigenvectors[:, i] @ given.eigenvectors[:, i]
            assert abs(abs(cosine) - 1) <= 1e-8


def test_dense_route_ignores_order():
    m = build_normalized_laplacian(ds.gen_grid(8, 8))
    ordered = dataclasses.replace(m, order=np.random.default_rng(5).permutation(m.n))
    plain, given = smallest_eigenpairs(m, 2), smallest_eigenpairs(ordered, 2)
    assert plain.route == given.route == "dense"
    assert plain.order is None and given.order is None
    assert np.array_equal(plain.eigenvalues, given.eigenvalues)
    assert np.array_equal(plain.eigenvectors, given.eigenvectors)


@pytest.mark.parametrize(
    "order",
    [np.arange(5), np.array([0, 1, 2, 3, 3, 5]), np.array([0, 1, 2, 3, 4, 6]),
     np.array([-1, 0, 1, 2, 3, 4]), np.arange(6.0), np.arange(6) == 0],
    ids=["short", "repeated", "past-n", "negative", "float", "bool"],
)
def test_order_must_be_a_permutation(order):
    m = build_normalized_laplacian(path_graph(6))
    with pytest.raises(DataError, match=r"not a permutation of range\(6\)"):
        spectral.SymmetricMatrix(m.matrix, m.index_map, order)
    assert spectral.SymmetricMatrix(m.matrix, m.index_map, np.arange(6)[::-1]).order[0] == 5


def test_restriction_keeps_the_elimination_sequence():
    g = isp_like_graph(400, seed=3)
    full = build_normalized_laplacian(g)
    order = np.random.default_rng(5).permutation(full.n)
    b = ds.resolve_boundary(g, "degree-one")
    inner = ds.interior(g, b)
    sub = spectral._restrict(dataclasses.replace(full, order=order), inner)
    assert (sub.matrix != build_dirichlet_laplacian(g, b).matrix).nnz == 0
    assert np.array_equal(sub.index_map, inner)
    # the kept rows are eliminated in the sequence the full order gives them
    assert np.array_equal(inner[sub.order], order[np.isin(order, inner)])
    assert spectral._restrict(full, inner).order is None


@pytest.mark.parametrize(
    "spec, boundary",
    [
        ("grid:30x17", "grid-perimeter"),
        ("tree:3x8", "leaves"),
        ("random:400x0.012", "grid-perimeter"),  # a 259-row interior in two pieces
        ("whisker:6x3x2", "degree-one"),  # dense route
    ],
)
def test_gaps_match_the_separate_solves(monkeypatch, spec, boundary):
    g = parse_generator_spec(spec, seed=3)
    b = ds.resolve_boundary(g, boundary)
    orders = _spy_ldl_orders(monkeypatch)
    trad, diri = ds.gaps(g, b)
    # minimum degree runs at most once: only the traditional Lanczos factor
    assert sum(o is None for o in orders) == (g.node_count > spectral.DENSE_LIMIT)
    assert trad == smallest_eigenpairs(build_normalized_laplacian(g), 2).eigenvalues[1]
    alone = smallest_eigenpairs(build_dirichlet_laplacian(g, b), 1).eigenvalues[0]
    assert abs(diri - alone) <= 1e-12
    dense = np.linalg.eigvalsh(build_dirichlet_laplacian(g, b).matrix.toarray())[0]
    assert abs(diri - dense) <= 1e-10


def test_gaps_leave_an_undefined_dirichlet_gap_empty():
    grid = ds.gen_grid(10, 10)  # no stub: empty boundary
    trad, diri = ds.gaps(grid, ds.resolve_boundary(grid, "degree-one"))
    assert diri is None and trad == ds.gaps(grid, ())[0]
    pair = ds.gen_grid(1, 2)  # both nodes are stubs: no interior
    assert ds.gaps(pair, ds.resolve_boundary(pair, "degree-one")) == (pytest.approx(2.0), None)
    with pytest.raises(NumericalError, match="unexpected spectrum"):
        ds.gaps(ds.build_graph([("a", "b"), ("x", "y")]), [0])


FILL_BOUND = 0.10  # README: postponing hubs fills at most 10% more than minimum degree


def _mmd_factor(a: sp.csr_matrix):
    # minimum degree straight from scipy, the route spectral._ldl wraps
    shifted = (a - spectral.SHIFT * sp.identity(a.shape[0])).tocsc()
    return splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


@pytest.mark.parametrize(
    "spec, why",
    [("tree:12x4", "share"), ("grid:60x60", "no hub"), ("random:3000x0.003", "share"),
     ("isp", "rows")],
)
def test_guarded_graphs_keep_one_minimum_degree_factor(monkeypatch, spec, why):
    # every interior node of tree:12x4 is a hub, as are a quarter of the
    # random graph's nodes; the grid has none; the ISP-like graph is below
    # the row floor: each is factored once, in minimum-degree order
    if spec == "isp":
        g = isp_like_graph(1900, seed=1)
    else:
        g = parse_generator_spec(spec)
    hubs = int((g.degree > spectral.HUB_DEGREE).sum())
    share = hubs / g.node_count
    assert {"share": share > spectral.HUB_SHARE, "no hub": hubs == 0,
            "rows": g.node_count < spectral.HUB_ROWS and 0 < share <= spectral.HUB_SHARE}[why]
    m = build_normalized_laplacian(g)
    orders = _spy_ldl_orders(monkeypatch)
    res = smallest_eigenpairs(m, 2)
    assert res.route == "shift-invert"
    assert np.array_equal(np.sort(res.order), np.arange(m.n))
    assert np.array_equal(res.order, np.argsort(_mmd_factor(m.matrix).perm_c))
    assert len(orders) == 2 and orders[0] is None and orders[1] is res.order  # and the inertia count


@pytest.mark.parametrize("spec", ["isp", "tree:22x3"])
def test_hubs_are_eliminated_last(monkeypatch, spec):
    # the rows of degree above HUB_DEGREE follow the rest's minimum-degree
    # order in ascending count of hub neighbours; on tree:22x3, whose 485
    # interior nodes are all hubs (4.8% of the rows), ascending degree would
    # eliminate the root first and fill 3.7 times what minimum degree does
    g = isp_like_graph(2000, seed=1) if spec == "isp" else parse_generator_spec(spec)
    m = build_normalized_laplacian(g)
    a = m.matrix
    alive = _factors_alive_at_each_factor(monkeypatch)
    res = smallest_eigenpairs(m, 2)
    # the rest's ordering factor is freed before the whole matrix is factored
    assert len(alive) == 3 and not any(alive)
    monkeypatch.undo()
    order = res.order
    assert np.array_equal(np.sort(order), np.arange(m.n))
    hub = g.degree > spectral.HUB_DEGREE
    rest, hubs = np.flatnonzero(~hub), np.flatnonzero(hub)
    assert m.n >= spectral.HUB_ROWS and 0 < hubs.size <= spectral.HUB_SHARE * m.n
    rest_order = np.argsort(_mmd_factor(a[rest][:, rest]).perm_c)
    assert np.array_equal(order[: rest.size], rest[rest_order])
    last = order[rest.size:]
    hub_neighbours = [sum(hub[g.indices[g.indptr[v]:g.indptr[v + 1]]]) for v in last]
    assert sorted(zip(hub_neighbours, last)) == list(zip(hub_neighbours, last))
    assert set(last) == set(hubs)
    fill = spectral._ldl(a, spectral.SHIFT, order).nnz
    assert fill <= (1 + FILL_BOUND) * _mmd_factor(a).nnz


def test_hub_order_gaps_match_dense_eigenvalues():
    # the traditional solve orders the whole ISP-like graph with its hubs
    # last, and the Dirichlet solve inherits that order on the interior
    g = isp_like_graph(2000, seed=2)
    b = ds.resolve_boundary(g, "degree-one")
    tol = 1e-8
    trad, diri = spectral.paired_solves(g, b, 1, tol)
    assert spectral._hubs_last(build_normalized_laplacian(g).matrix) is not None
    inner = ds.interior(g, b)
    assert np.array_equal(inner[diri.order], trad.order[np.isin(trad.order, inner)])
    dense_t = np.linalg.eigvalsh(slow_normalized_laplacian(g).toarray())
    dense_d = np.linalg.eigvalsh(slow_dirichlet_laplacian(g, inner).toarray())
    t_gap, d_gap = ds.gaps(g, b, tol)
    assert abs(t_gap - dense_t[1]) <= tol and abs(d_gap - dense_d[0]) <= tol
    assert trad.eigenvalues[1] == t_gap and diri.eigenvalues[0] == d_gap
