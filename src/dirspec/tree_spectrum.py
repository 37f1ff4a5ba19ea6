"""Closed-form spectra of finite regular trees with leaf boundary conditions.

For a regular tree whose interior nodes all have degree d and whose leaves
(at depth L+1) are the boundary, the boundary-restricted spectrum decomposes
into two families, both parametrized by an angle a via

    eigenvalue = 1 - (2/d) * sqrt(d-1) * cos(a).

The depth-symmetric family takes the L+1 roots of

    d sin(a) cos((L+1) a) + (d-2) cos(a) sin((L+1) a) = 0,   0 < a < pi,

(the pole-free cross-multiplied form of tan(a)/tan((L+1)a) = -(d-2)/d), and
the sector families, supported below a level-k node, take a = j*pi/(L+1-k).
This module serves as an independent oracle for the numerical eigensolver.

The gap needs only the smallest root, and with m = L+1 it is the one root on
(pi/(2m), pi/m). The condition is (d-2) cos(pi/(2m)) > 0 at the left end and
-d sin(pi/m) < 0 at the right end. Between them tan(a) > 0 and tan(ma) < 0,
and tan(a)/tan(ma) falls strictly from 0 to -inf (the numerator rises, the
negative denominator rises from -inf toward 0), so it meets -(d-2)/d exactly
once. On (0, pi/(2m)] the condition's first term is non-negative and its
second positive, so no smaller root exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError

GRID_PER_ROOT = 64
ROOT_RESIDUAL_TOL = 1e-12


def infinite_tree_gap(degree: int) -> float:
    """Spectral gap of the infinite regular tree: 1 - (2/d) sqrt(d-1)."""
    if degree < 2:
        raise DataError("tree degree must be >= 2")
    return 1.0 - 2.0 * math.sqrt(degree - 1) / degree


def _eig_condition(degree: int, levels: int, a: float) -> float:
    m = levels + 1
    return degree * math.sin(a) * math.cos(m * a) + (degree - 2) * math.cos(
        a
    ) * math.sin(m * a)


def _eig_condition_deriv(degree: int, levels: int, a: float) -> float:
    m = levels + 1
    return (degree + (degree - 2) * m) * math.cos(a) * math.cos(m * a) - (
        degree * m + (degree - 2)
    ) * math.sin(a) * math.sin(m * a)


def _check_family_args(degree: int, levels: int) -> None:
    if degree < 3:
        raise DataError("finite-tree eigenvalue condition requires degree >= 3")
    if levels < 1:
        raise DataError("levels must be >= 1")


def _refine_root(degree: int, levels: int, lo: float, hi: float, flo: float) -> float:
    """Bisect a sign change of the condition on [lo, hi] to adjacent floats.

    flo is the condition's value at lo. One Newton step then drives the
    residual to the rounding floor; a step wider than the bracket is dropped.
    """
    width = hi - lo
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = _eig_condition(degree, levels, mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    root = 0.5 * (lo + hi)
    d1 = _eig_condition_deriv(degree, levels, root)
    if d1 != 0.0:
        step = _eig_condition(degree, levels, root) / d1
        if abs(step) < width:
            root -= step
    return root


def _check_residual(degree: int, levels: int, roots) -> None:
    bad = max(abs(_eig_condition(degree, levels, r)) for r in roots)
    if bad > ROOT_RESIDUAL_TOL:
        raise NumericalError(f"root residual {bad:.3e} exceeds {ROOT_RESIDUAL_TOL:.0e}")


def symmetric_family_roots(degree: int, levels: int) -> np.ndarray:
    """All levels+1 angle roots of the eigenvalue condition on (0, pi).

    Sign changes are bracketed on a uniform grid and each is refined by
    bisection and one Newton step; exactly levels+1 roots must emerge.
    """
    _check_family_args(degree, levels)
    m = levels + 1
    n_grid = GRID_PER_ROOT * m
    xs = np.arange(1, n_grid) * (math.pi / n_grid)
    fs = np.array([_eig_condition(degree, levels, x) for x in xs])

    roots: list[float] = []
    for i in range(len(xs) - 1):
        f0, f1 = fs[i], fs[i + 1]
        if f0 == 0.0:
            roots.append(float(xs[i]))
        elif f0 * f1 < 0.0:
            roots.append(_refine_root(degree, levels, float(xs[i]), float(xs[i + 1]), f0))
    if fs[-1] == 0.0:
        roots.append(float(xs[-1]))

    if len(roots) != m:
        raise NumericalError(
            f"root bracketing failed: expected {m} roots, found {len(roots)} "
            f"(degree={degree}, levels={levels})"
        )
    _check_residual(degree, levels, roots)
    return np.array(roots)


def eigenvalue_from_angle(degree: int, a: float) -> float:
    return 1.0 - 2.0 * math.sqrt(degree - 1) / degree * math.cos(a)


def dirichlet_gap_analytic(degree: int, levels: int) -> float:
    """Smallest boundary-conditioned eigenvalue of the finite regular tree.

    Solves only the smallest root of the condition, on (pi/(2m), pi/m) with
    m = levels+1: the condition is (d-2) cos(pi/(2m)) > 0 at the left end and
    -d sin(pi/m) < 0 at the right end, and tan(a)/tan(ma) is strictly
    monotone in between, so the bracket holds exactly one root (see the
    module docstring). Ends without opposite signs raise NumericalError.
    """
    _check_family_args(degree, levels)
    m = levels + 1
    lo, hi = math.pi / (2 * m), math.pi / m
    flo = _eig_condition(degree, levels, lo)
    fhi = _eig_condition(degree, levels, hi)
    if not (flo > 0.0 > fhi):
        raise NumericalError(
            f"smallest-root bracket has no sign change: condition {flo:.3e} at "
            f"pi/(2m), {fhi:.3e} at pi/m (degree={degree}, levels={levels})"
        )
    root = _refine_root(degree, levels, lo, hi, flo)
    _check_residual(degree, levels, [root])
    return eigenvalue_from_angle(degree, root)


def sector_family_eigenvalues(degree: int, levels: int) -> list[tuple[float, int]]:
    """Eigenvalues of the families vanishing above a level-k node, as (value, k).

    For each k in 0..levels-1 the angles are j*pi/(levels+1-k), j = 1..levels-k.
    """
    _check_family_args(degree, levels)
    out: list[tuple[float, int]] = []
    for k in range(levels):
        span = levels + 1 - k
        for j in range(1, levels - k + 1):
            out.append((eigenvalue_from_angle(degree, j * math.pi / span), k))
    return out


@dataclass(frozen=True)
class TreeSpectrumResult:
    """Complete analytic eigenvalue inventory for one (degree, levels) tree."""

    degree: int
    levels: int
    symmetric_angles: np.ndarray
    symmetric_eigenvalues: np.ndarray
    sector_eigenvalues: tuple[tuple[float, int], ...]

    def all_values(self, merge_tol: float = 1e-12) -> np.ndarray:
        """Sorted distinct eigenvalue values across both families."""
        vals = sorted(
            list(self.symmetric_eigenvalues) + [v for v, _ in self.sector_eigenvalues]
        )
        merged = [vals[0]]
        for v in vals[1:]:
            if v - merged[-1] > merge_tol:
                merged.append(v)
        return np.array(merged)


def tree_spectrum(degree: int, levels: int) -> TreeSpectrumResult:
    angles = symmetric_family_roots(degree, levels)
    sym_vals = np.array([eigenvalue_from_angle(degree, a) for a in angles])
    sectors = tuple(sector_family_eigenvalues(degree, levels))
    return TreeSpectrumResult(degree, levels, angles, sym_vals, sectors)
