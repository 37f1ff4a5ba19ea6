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

Write f(a) for the condition and m = L+1. Every root has its own bracket.
For j = 1..floor(m/2) the interval B_j = ((j-1/2)pi/m, j pi/m) lies below
pi/2 and holds exactly one root:

- at its left end ma = (j-1/2)pi, so f = (d-2) cos(a) (-1)^(j+1); at its
  right end ma = j pi, so f = d sin(a) (-1)^j. When m is even the last
  bracket ends at pi/2, where f = d (-1)^j. The ends have opposite signs.
- inside it tan(a) > 0 > tan(ma), and f = 0 exactly where
  tan(a)/tan(ma) = -(d-2)/d. |tan(a)| rises and |tan(ma)| falls from inf
  to 0, so |tan(a)/tan(ma)| rises strictly from 0 to inf and meets (d-2)/d
  once.

No root lies between brackets: on (0, pi/(2m)] (j = 0) and on each
[j pi/m, (j+1/2)pi/m], taken below pi/2, sin(ma) and cos(ma) are never both
zero and neither has the sign opposite to (-1)^j, while sin(a), cos(a) > 0,
so both terms of f share a sign and do not both vanish. When m is odd the
last such interval, j = (m-1)/2, ends at pi/2, where both terms vanish:
pi/2 is a root. Last, f(pi - a) = (-1)^m f(a), so the roots above pi/2 are
the mirror images pi - a of those below. That accounts for all m roots, and
the gap's root is the one on B_1 = (pi/(2m), pi/m).

One bisection serves many roots. Each pair (m, j) is a lane with bracket
B_j, and every lane is halved at once by array operations; a lane leaves
when its bracket is two adjacent floats or its midpoint is an exact zero.
A lane runs the float operations that bisecting its bracket alone would, so
its root does not depend on the other lanes. symmetric_family_roots bisects
the lanes j = 1..floor(m/2) of one depth, and dirichlet_gap_analytic the
lane j = 1 of every depth it is given.

The residual guard. At a float a within an ulp or two of a root, the
computed f differs from zero by (i) |f'| |a - a*|, where
|f'| <= 2(d-1)(m+1) and |a - a*| is about eps for angles below pi; (ii) the
rounding of m*a, up to m*pi*eps/2 in the argument, which moves the two terms
by less than pi*eps*d*m; (iii) a few roundings of sin, cos and the products,
each about eps*d. Together that is a few times eps*d*(m+1), so a root is
accepted when its residual is at most 8*eps*d*(m+1). Bisection to adjacent
floats, keeping the end with the smaller residual, measured a largest ratio
of 2.82 over all 45,543 roots of d = 3..10 with L = 1..79, 100, 150, 200,
and of (d, L) = (3, 2000), (4, 2000), (5, 700), (6, 700), (8, 300),
(10, 300) and (10, 10000).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, NumericalError


def infinite_tree_gap(degree: int) -> float:
    """Spectral gap of the infinite regular tree: 1 - (2/d) sqrt(d-1)."""
    if degree < 2:
        raise DataError("tree degree must be >= 2")
    return 1.0 - 2.0 * math.sqrt(degree - 1) / degree


def _eig_condition(degree: int, levels, a):
    """The condition f(a) with m = levels+1; ``levels`` and ``a`` may be arrays
    that broadcast together, one lane per element."""
    m = levels + 1
    return degree * np.sin(a) * np.cos(m * a) + (degree - 2) * np.cos(a) * np.sin(m * a)


def _check_family_args(degree: int, levels) -> None:
    if degree < 3:
        raise DataError("finite-tree eigenvalue condition requires degree >= 3")
    if (np.asarray(levels) < 1).any():
        raise DataError("levels must be >= 1")


def _bracketed_roots(degree: int, levels, j) -> np.ndarray:
    """Root j of the condition on ((j-1/2)pi/m, j pi/m), m = levels+1, for
    each lane of ``levels`` and ``j`` broadcast together (j = 1..m//2).

    Every lane's ends must carry the proved signs (-1)^(j+1) and (-1)^j, else
    NumericalError names the first lane without them.  The lanes are bisected
    together, each to adjacent floats, and each returns the end with the
    smaller residual, or a midpoint where the condition is exactly 0: the
    floats that bisecting each lane alone gives.
    """
    levels, j = (np.ravel(x) for x in np.broadcast_arrays(levels, j))
    m = levels + 1
    lo, hi = (j - 0.5) * np.pi / m, j * np.pi / m
    flo = np.broadcast_to(_eig_condition(degree, levels, lo), lo.shape)
    fhi = np.broadcast_to(_eig_condition(degree, levels, hi), lo.shape)
    sign = np.where(j % 2 == 1, 1.0, -1.0)
    bad = np.flatnonzero(~((sign * flo > 0.0) & (sign * fhi < 0.0)))
    if bad.size:
        i = bad[0]
        raise NumericalError(
            f"root {j[i]} bracket has no sign change: condition {flo[i]:.3e} at "
            f"(j-1/2)pi/m, {fhi[i]:.3e} at j*pi/m (degree={degree}, levels={levels[i]})"
        )
    roots = np.empty(lo.shape)
    lane = np.arange(lo.size)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fm = _eig_condition(degree, levels, mid)
        ended = (mid == lo) | (mid == hi)
        exact = (fm == 0.0) & ~ended
        live = ~(ended | exact)
        if not live.all():
            roots[lane[ended]] = np.where(abs(flo) <= abs(fhi), lo, hi)[ended]
            roots[lane[exact]] = mid[exact]
            lane, levels, lo, hi, flo, fhi, mid, fm = (
                x[live] for x in (lane, levels, lo, hi, flo, fhi, mid, fm)
            )
            if not lane.size:
                break
        right = flo * fm < 0.0  # the sign change lies in (lo, mid)
        lo, flo = np.where(right, lo, mid), np.where(right, flo, fm)
        hi, fhi = np.where(right, mid, hi), np.where(right, fm, fhi)
    roots[lane] = np.where(abs(flo) <= abs(fhi), lo, hi)
    return roots


def _check_residual(degree: int, levels, roots: np.ndarray) -> None:
    guard = 8 * np.finfo(float).eps * degree * (levels + 2)
    residual = np.abs(_eig_condition(degree, levels, roots))
    residual, guard, levels = np.broadcast_arrays(residual, guard, levels)
    bad = np.flatnonzero(residual > guard)
    if bad.size:
        i = bad[0]
        raise NumericalError(
            f"root residual {residual[i]:.3e} exceeds {guard[i]:.3e} "
            f"(degree={degree}, levels={levels[i]})"
        )


def symmetric_family_roots(degree: int, levels: int) -> np.ndarray:
    """All levels+1 angle roots of the eigenvalue condition on (0, pi), ascending.

    The roots below pi/2 are solved together, each on its own bracket; pi/2
    is a root when levels+1 is odd, and the rest mirror the lower roots as
    a -> pi - a.
    """
    _check_family_args(degree, levels)
    m = levels + 1
    low = _bracketed_roots(degree, levels, np.arange(1, m // 2 + 1))
    roots = np.concatenate([low, [math.pi / 2] if m % 2 else [], math.pi - low[::-1]])
    _check_residual(degree, levels, roots)
    return roots


def eigenvalue_from_angle(degree: int, a):
    """1 - (2/d) sqrt(d-1) cos(a), for one angle or an array of them."""
    return 1.0 - 2.0 * math.sqrt(degree - 1) / degree * np.cos(a)


def dirichlet_gap_analytic(degree: int, levels) -> float | np.ndarray:
    """Smallest boundary-conditioned eigenvalue of the finite regular tree.

    ``levels`` is an int, giving a float, or a 1-D int array, giving an
    array of gaps, one per depth.  Solves only the smallest root of the
    condition, on its one-root bracket (pi/(2m), pi/m) with m = levels+1,
    every depth in one bisection; it is the root that symmetric_family_roots
    puts first (see the module docstring).
    """
    lv = np.asarray(levels)
    if lv.dtype.kind not in "iu" or lv.ndim > 1:
        raise DataError("levels must be an int or a 1-D int array")
    lv = lv.astype(np.int64)  # levels + 2 must not wrap in a narrow dtype
    _check_family_args(degree, lv)
    roots = _bracketed_roots(degree, lv, 1)
    _check_residual(degree, lv, roots)
    gaps = eigenvalue_from_angle(degree, roots)
    return float(gaps[0]) if lv.ndim == 0 else gaps


def sector_family_eigenvalues(degree: int, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the families vanishing above a level-k node, as arrays (values, k).

    For k = 0..levels-1 in turn the angles are j*pi/(levels+1-k), j = 1..levels-k.
    """
    _check_family_args(degree, levels)
    k, col = np.triu_indices(levels)  # k ascending, then j = col - k + 1 ascending
    angles = (col - k + 1) * math.pi / (levels + 1 - k)
    return eigenvalue_from_angle(degree, angles), k

