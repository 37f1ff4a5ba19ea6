from __future__ import annotations

import importlib
import math

import numpy as np
import pytest

import dirspec as ds
from dirspec.errors import DataError, NumericalError
from dirspec.spectral import build_dirichlet_laplacian, smallest_eigenpairs
from dirspec.tree_spectrum import _bracketed_roots, _eig_condition, eigenvalue_from_angle

from conftest import merged_tree_values, slow_bracketed_root, slow_radial_tree_spectrum

# depths at which a fixed 1e-12 residual guard rejected the family's largest roots
DEEP_CASES = ((3, 2000), (4, 2000), (5, 700), (6, 700), (8, 300), (10, 300))
GAP_LEVELS = [*range(1, 51), 200, 1000, 5000]


def test_infinite_tree_gap_values():
    assert ds.infinite_tree_gap(2) == 0.0
    assert ds.infinite_tree_gap(3) == pytest.approx(1 - 2 * math.sqrt(2) / 3, abs=1e-15)
    assert ds.infinite_tree_gap(3) == pytest.approx(0.057191, abs=1e-6)
    assert ds.infinite_tree_gap(4) == pytest.approx(1 - math.sqrt(3) / 2, abs=1e-15)
    assert ds.infinite_tree_gap(4) == pytest.approx(0.133975, abs=1e-6)
    with pytest.raises(DataError):
        ds.infinite_tree_gap(1)


def test_symmetric_roots_closed_form_small_case():
    # levels=1, degree=3: the condition reduces to tan^2(a) = 5/3
    roots = ds.symmetric_family_roots(3, 1)
    a = math.atan(math.sqrt(5 / 3))
    assert np.allclose(roots, [a, math.pi - a], atol=1e-12)


def test_symmetric_roots_count_and_residual():
    for degree, levels in ((3, 1), (3, 2), (3, 7), (4, 5), (5, 3), (3, 40)):
        roots = ds.symmetric_family_roots(degree, levels)
        assert len(roots) == levels + 1
        assert (np.diff(roots) > 0).all()
        assert roots[0] > 0 and roots[-1] < math.pi
        worst = max(abs(_eig_condition(degree, levels, a)) for a in roots)
        assert worst <= 1e-12


def test_symmetric_roots_validation():
    for solve in (ds.symmetric_family_roots, ds.dirichlet_gap_analytic):
        with pytest.raises(DataError):
            solve(2, 3)
        with pytest.raises(DataError):
            solve(3, 0)


def test_smallest_angle_decreases_with_depth():
    a4 = ds.symmetric_family_roots(3, 4)[0]
    a8 = ds.symmetric_family_roots(3, 8)[0]
    assert a8 < a4


def test_gap_analytic_matches_numeric_small_tree():
    gap = ds.dirichlet_gap_analytic(3, 1)
    assert gap == pytest.approx(1 - 1 / math.sqrt(3), abs=1e-12)
    tree = ds.gen_tree(3, 2)
    m = build_dirichlet_laplacian(tree, ds.resolve_boundary(tree, "leaves"))
    numeric = smallest_eigenpairs(m, 1).eigenvalues[0]
    assert gap == pytest.approx(numeric, abs=1e-10)


def test_gap_analytic_is_smallest_family_root():
    # the one-root bracket solve gives the full-family solve's first root, bit for bit
    for degree in (3, 4, 5):
        for levels in range(1, 201):
            smallest = ds.symmetric_family_roots(degree, levels)[0]
            assert ds.dirichlet_gap_analytic(degree, levels) == eigenvalue_from_angle(
                degree, smallest
            ), (degree, levels)


def test_smallest_root_bracket_signs():
    # every bracket ((j-1/2)pi/m, j pi/m) has the proved end signs (-1)^(j+1), (-1)^j
    for degree in range(3, 11):
        for levels in GAP_LEVELS:
            m = levels + 1
            for j in range(1, m // 2 + 1):
                sign = 1.0 if j % 2 else -1.0
                left = _eig_condition(degree, levels, (j - 0.5) * math.pi / m)
                right = _eig_condition(degree, levels, j * math.pi / m)
                assert sign * left > 0, (degree, levels, j)
                assert sign * right < 0, (degree, levels, j)
                if 2 * j == m:
                    # the last bracket of an even m ends at pi/2
                    assert right == pytest.approx(degree * (-1) ** j, abs=1e-12)


@pytest.mark.parametrize("degree", range(3, 11))
def test_gap_lanes_equal_scalar_bisection(degree):
    levels = np.array(GAP_LEVELS)
    roots = _bracketed_roots(degree, levels, 1)
    want = [slow_bracketed_root(degree, int(L), 1) for L in levels]
    assert roots.tolist() == want
    gaps = ds.dirichlet_gap_analytic(degree, levels)
    assert gaps.tolist() == [eigenvalue_from_angle(degree, a) for a in want]


@pytest.mark.parametrize("degree", range(3, 11))
def test_family_lanes_equal_scalar_bisection(degree):
    for levels in [*range(1, 51), 200]:
        m = levels + 1
        want = [slow_bracketed_root(degree, levels, j) for j in range(1, m // 2 + 1)]
        assert _bracketed_roots(degree, levels, np.arange(1, m // 2 + 1)).tolist() == want
        roots = ds.symmetric_family_roots(degree, levels)
        assert roots[: m // 2].tolist() == want, levels
        assert roots[m - m // 2 :].tolist() == [math.pi - a for a in reversed(want)]


def test_gap_analytic_scalar_and_array_levels():
    gap = ds.dirichlet_gap_analytic(3, 7)
    assert type(gap) is float
    assert ds.dirichlet_gap_analytic(3, np.int64(7)) == gap
    gaps = ds.dirichlet_gap_analytic(3, np.array([7, 1, 7]))
    assert gaps.tolist() == [gap, ds.dirichlet_gap_analytic(3, 1), gap]
    assert ds.dirichlet_gap_analytic(3, np.array([], dtype=np.int64)).shape == (0,)
    narrow = ds.dirichlet_gap_analytic(3, np.array([127], dtype=np.int8))
    assert narrow.tolist() == [ds.dirichlet_gap_analytic(3, 127)]
    for bad in (np.array([3, 0]), np.array([2.0, 3.0]), np.array([[2, 3]]), True):
        with pytest.raises(DataError):
            ds.dirichlet_gap_analytic(3, bad)


def test_gap_lane_without_sign_change_is_named(monkeypatch):
    module = importlib.import_module("dirspec.tree_spectrum")
    condition = module._eig_condition

    def positive_at_depth_7(degree, levels, a):
        f = condition(degree, levels, a)
        return np.where(levels == 7, abs(f), f)

    monkeypatch.setattr(module, "_eig_condition", positive_at_depth_7)
    with pytest.raises(NumericalError, match=r"root 1 bracket has no sign change.*levels=7\)"):
        ds.dirichlet_gap_analytic(3, np.arange(1, 21))
    # the other lanes still solve
    assert ds.dirichlet_gap_analytic(3, np.arange(8, 21)).shape == (13,)


@pytest.mark.parametrize("value", [1.0, -1.0])
def test_gap_analytic_bracket_without_sign_change_raises(monkeypatch, value):
    module = importlib.import_module("dirspec.tree_spectrum")
    monkeypatch.setattr(module, "_eig_condition", lambda degree, levels, a: value)
    for solve in (ds.dirichlet_gap_analytic, ds.symmetric_family_roots):
        with pytest.raises(NumericalError, match="no sign change"):
            solve(3, 10)


def test_symmetric_family_matches_radial_spectrum():
    eps = np.finfo(float).eps
    cases = [
        (degree, levels)
        for degree in range(3, 11)
        for levels in (1, 2, 3, 4, 7, 10, 31, 64, 100, 257)
    ]
    for degree, levels in [*cases, *DEEP_CASES]:
        angles = ds.symmetric_family_roots(degree, levels)
        assert len(angles) == levels + 1
        assert (np.diff(angles) > 0).all() and 0 < angles[0] and angles[-1] < math.pi
        worst = max(abs(_eig_condition(degree, levels, a)) for a in angles)
        assert worst <= 8 * eps * degree * (levels + 2), (degree, levels)
        got = np.sort(eigenvalue_from_angle(degree, angles))
        want = slow_radial_tree_spectrum(degree, levels)
        assert np.abs(got - want).max() <= 1e-12, (degree, levels)


def test_gap_analytic_monotone_and_above_infinite():
    inf3 = ds.infinite_tree_gap(3)
    gaps = [ds.dirichlet_gap_analytic(3, levels) for levels in range(1, 61)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert all(g > inf3 for g in gaps)


def test_oracle_solver_agreement_subset():
    for degree, levels in ((3, 1), (3, 2), (3, 3), (3, 4), (4, 2), (5, 2)):
        tree = ds.gen_tree(degree, levels + 1)
        m = build_dirichlet_laplacian(tree, ds.resolve_boundary(tree, "leaves"))
        numeric = smallest_eigenpairs(m, 1).eigenvalues[0]
        assert ds.dirichlet_gap_analytic(degree, levels) == pytest.approx(
            numeric, abs=1e-8
        )


def test_sector_family_structure():
    values, levels = ds.sector_family_eigenvalues(3, 1)
    assert values.tolist() == [pytest.approx(1.0, abs=1e-15)]
    assert levels.tolist() == [0]

    values, levels = ds.sector_family_eigenvalues(4, 5)
    assert ((0 <= levels) & (levels < 5)).all()
    assert (values >= ds.infinite_tree_gap(4) - 1e-12).all()

    _, levels = ds.sector_family_eigenvalues(3, 6)
    assert np.bincount(levels).tolist() == [6 - k for k in range(6)]


@pytest.mark.parametrize("degree, levels", [(3, 1), (3, 50), (4, 7), (8, 300)])
def test_sector_family_equals_scalar_loop(degree, levels):
    pairs = [
        (eigenvalue_from_angle(degree, j * math.pi / (levels + 1 - k)), k)
        for k in range(levels)
        for j in range(1, levels - k + 1)
    ]
    values, ks = ds.sector_family_eigenvalues(degree, levels)
    assert values.dtype == np.float64 and ks.dtype.kind == "i"
    # exact, value by value
    assert np.array_equal(values, np.array([v for v, _ in pairs]))
    assert np.array_equal(ks, np.array([k for _, k in pairs]))


def test_symmetric_values_outside_infinite_gap():
    for degree, levels in ((3, 5), (4, 4), (5, 3)):
        values = eigenvalue_from_angle(degree, ds.symmetric_family_roots(degree, levels))
        inf_gap = ds.infinite_tree_gap(degree)
        assert (values >= inf_gap - 1e-12).all()
        assert (np.diff(values) > 0).all()


def test_full_spectrum_set_agreement_small():
    for degree, levels in ((3, 1), (3, 2)):
        values = merged_tree_values(degree, levels)
        tree = ds.gen_tree(degree, levels + 1)
        b = ds.resolve_boundary(tree, "leaves")
        m = build_dirichlet_laplacian(tree, b)
        dense = smallest_eigenpairs(m, m.n).eigenvalues
        assert max(min(abs(v - dense)) for v in values) <= 1e-8
        assert max(min(abs(x - values)) for x in dense) <= 1e-8


def test_eigenvalue_from_angle_range():
    for degree in (3, 4, 5):
        for a in np.linspace(0.01, math.pi - 0.01, 25):
            lam = eigenvalue_from_angle(degree, float(a))
            assert 0.0 <= lam <= 2.0
