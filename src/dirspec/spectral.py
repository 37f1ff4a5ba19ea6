"""Normalized Laplacian assembly, boundary restriction, and verified eigensolves.

The normalized Laplacian has 1 on the diagonal and -1/sqrt(d_u d_v) for
adjacent nodes, so its spectrum lies in [0, 2].  Restricting rows and columns
to the interior (non-boundary) nodes, while keeping full-graph degrees in the
normalization, gives the boundary-conditioned operator whose smallest
eigenvalue is the Dirichlet spectral gap.

Both operators are sparse and only a few of their smallest eigenpairs are
usually wanted, so partial solves use shift-inverted Lanczos on a sparse
LDL^T factor; a dense decomposition is kept for tiny matrices and full
spectra.  The matrix size and the number of wanted pairs alone pick the route.
Minimum degree, most of a factor's time, runs once per graph: ``paired_solves``
factors the interior block in the traditional order restricted to its rows.
On large maps with a few hubs it orders the rest, and the hubs go last
(``_hubs_last``): SuperLU's minimum degree is slow on high-degree rows.

Lanczos can skip an eigenvalue, so a shift-invert solve must prove that it
found the smallest ones.  The general proof is an inertia count, a second
LDL^T from the same routine in the solve's own order.  A one-pair solve of
a Z-matrix (every off-diagonal entry <= 0, as in both operators here) has a
cheaper one.  With c its largest diagonal entry, B = cI - A is entrywise
nonnegative, and for any entrywise-positive x the Collatz-Wielandt bounds
min_i (Bx)_i/x_i <= rho(B) <= max_i (Bx)_i/x_i hold (Horn-Johnson, Matrix
Analysis, 8.1.26).  B is symmetric, so rho(B) is its largest eigenvalue,
c - lambda_min(A), which turns the bounds into

    min_i (Ax)_i/x_i <= lambda_min(A) <= max_i (Ax)_i/x_i.

Irreducibility is not needed.  The computed eigenvector, sign-flipped, is
such an x whenever it has no zero entry, and then one sparse matvec encloses
lambda_min.  No eigenvalue lies below the lower end, so when that end is at
or above the computed eigenvalue minus the tolerance, the solve skipped none.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, SuperLU, eigsh, splu

from .errors import DataError, NumericalError
from .graph import Graph, interior

DENSE_LIMIT = 64  # below this, a dense decomposition beats factor-and-iterate
# Minimum degree postpones rows with more than HUB_DEGREE off-diagonal entries
# (ISP 100k: 23 s, not 79 s, for the factor), except below HUB_ROWS rows (ISP
# gaps cross over between 1,500 and 2,000) or where more than HUB_SHARE of the
# rows are hubs (ISP maps 2.6-3.8%; tree:12x4, 9.1%, ran gaps 48-71% slower
# with its hubs last, and random graphs, 13% and more, gained nothing and
# filled up to 41% more); README, "Eigenpairs", has the measurements
HUB_DEGREE = 10
HUB_ROWS = 2000
HUB_SHARE = 0.05
SHIFT = -1e-4
EIGENVALUE_SLACK = 1e-9
ORTHONORMALITY_TOL = 1e-8


@dataclass(frozen=True)
class SymmetricMatrix:
    """Symmetric sparse operator with a map from matrix rows back to graph node ids.

    ``order``, if given, is a permutation of ``range(n)``: every sparse
    factor eliminates row ``order[j]`` at step j.
    """

    matrix: sp.csr_matrix
    index_map: np.ndarray
    order: np.ndarray | None = None

    def __post_init__(self):
        if self.order is not None:
            o = np.sort(self.order)
            if o.dtype.kind not in "iu" or not np.array_equal(o, range(self.n)):
                raise DataError(f"order is not a permutation of range({self.n})")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues with per-pair residual norms and orthonormal eigenvectors.

    ``route`` names the solver that produced them: ``"dense"`` or ``"shift-invert"``.
    ``order`` is the elimination order of the solve's factors, the operator's
    own or else its minimum-degree order (None on the dense route).
    ``enclosure`` is the proved interval ``(lo, hi)`` around the smallest
    eigenvalue when a one-pair shift-invert solve was certified by it (see
    the module docstring), else None.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    tol: float
    route: str
    order: np.ndarray | None
    enclosure: tuple[float, float] | None = None


def build_normalized_laplacian(g: Graph) -> SymmetricMatrix:
    """Assemble I - D^{-1/2} A D^{-1/2} for the whole graph."""
    if g.node_count == 0:
        raise DataError("empty graph")
    if (g.degree == 0).any():
        raise DataError("isolated node: degree-normalized Laplacian is undefined")
    inv_sqrt = 1.0 / np.sqrt(g.degree.astype(float))
    scaled = g.adjacency_matrix.multiply(inv_sqrt[:, None]).multiply(inv_sqrt[None, :])
    lap = (sp.identity(g.node_count, format="csr") - scaled).tocsr()
    return SymmetricMatrix(lap, np.arange(g.node_count, dtype=np.int64))


def _restrict(m: SymmetricMatrix, rows: np.ndarray) -> SymmetricMatrix:
    """The principal submatrix of ``m`` on the ascending ``rows``, whose order
    eliminates them in the sequence ``m.order`` does, if ``m`` has one."""
    order = None if m.order is None else np.argsort(np.argsort(m.order)[rows])
    return SymmetricMatrix(m.matrix[rows][:, rows].tocsr(), m.index_map[rows], order)


def build_dirichlet_laplacian(g: Graph, boundary: Iterable[int]) -> SymmetricMatrix:
    """Restrict the normalized Laplacian to interior rows and columns.

    Degrees in the normalization stay the full-graph degrees: edges leading
    to the boundary still count, only the boundary rows/columns are removed.
    """
    inner = interior(g, boundary)
    if inner.size == 0:
        raise DataError("empty interior: boundary covers every node")
    return _restrict(build_normalized_laplacian(g), inner)


def _ldl(a: sp.csr_matrix, shift: float, order: np.ndarray | None = None) -> SuperLU:
    """LDL^T of the symmetric ``a - shift*I``: an LU with diagonal pivots, D = diag(U).

    By Sylvester's law of inertia D has as many negative entries as
    ``a - shift*I`` has negative eigenvalues.  Without ``order`` SuperLU's
    minimum-degree ordering of A^T+A runs (on 4,000-router ISP-like maps a
    seventh of COLAMD's fill); with it, row ``order[j]`` is eliminated at step
    j, as ``np.argsort(f.perm_c)`` gives for a factor f of the same pattern,
    and ``solve`` works in that permuted basis.  A given order is a solve's
    own minimum-degree one, ``_hubs_last``'s, or the traditional one
    restricted by ``paired_solves``.
    """
    shifted = a - shift * sp.identity(a.shape[0], format="csr")
    if order is not None:
        shifted = shifted[order][:, order]
    try:
        lu = splu(
            shifted.tocsc(),
            permc_spec="MMD_AT_PLUS_A" if order is None else "NATURAL",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as e:
        raise NumericalError(f"cannot factor at shift {shift:.6e}: {e}") from e
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NumericalError(f"cannot factor at shift {shift:.6e}: a pivot left the diagonal")
    return lu


def _hubs_last(a: sp.csr_matrix) -> np.ndarray | None:
    """An elimination order for ``a`` with its hubs postponed, or None where
    ``_ldl``'s minimum degree of the whole matrix is kept.

    Hubs are the rows with more than HUB_DEGREE off-diagonal entries (AMD's
    dense-row rule with a measured threshold).  The rest is ordered by
    minimum degree, and the hubs follow in ascending count of hub neighbours,
    stable: on a tree of hubs that is leaves first, while ascending degree
    eliminates the root first.  None for matrices below HUB_ROWS rows, with
    no hub, or with hubs in more than HUB_SHARE of the rows.
    """
    n = a.shape[0]
    if n < HUB_ROWS:
        return None
    hub = np.diff(a.indptr) - (a.diagonal() != 0) > HUB_DEGREE
    if not 0 < hub.sum() <= HUB_SHARE * n:
        return None
    rest, hubs = np.flatnonzero(~hub), np.flatnonzero(hub)
    lu = _ldl(a[rest][:, rest], SHIFT)  # scipy has no ordering-only call
    links = np.diff(a[hubs][:, hubs].indptr)  # plus one for a stored diagonal
    return np.concatenate((rest[np.argsort(lu.perm_c)], hubs[np.argsort(links, kind="stable")]))


def _collatz_wielandt(
    a: sp.csr_matrix, x: np.ndarray, ax: np.ndarray
) -> tuple[float, float] | None:
    """Proved bounds ``(lo, hi)`` on the smallest eigenvalue of the symmetric ``a``.

    ``ax`` is the computed product ``a @ x``.  Returns None unless every
    off-diagonal entry of ``a`` is <= 0 and ``x`` or ``-x`` is entrywise
    positive.  Row i of the product sums r_i stored entries times x, so it
    errs by at most gamma(r_i) (|A|x)_i, gamma(r) = r*eps/(1 - r*eps)
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.5).  The
    margin 2 (r_i+2) eps (|A|x)_i also covers the rounding of the margin
    itself and of the subtraction, one smallest subnormal per term covers
    underflow, and one ulp outward covers the division.
    """
    row_nnz = np.diff(a.indptr)
    rows = np.repeat(np.arange(a.shape[0]), row_nnz)
    if (a.data[a.indices != rows] > 0).any():
        return None
    if x.sum() < 0:
        x, ax = -x, -ax
    if not (x > 0).all():
        return None
    terms = row_nnz + 2.0
    margin = 2 * terms * np.finfo(float).eps * (abs(a) @ x)
    margin += terms * np.finfo(float).smallest_subnormal
    lo = np.nextafter(((ax - margin) / x).min(), -np.inf)
    hi = np.nextafter(((ax + margin) / x).max(), np.inf)
    return float(lo), float(hi)


def check_tolerance(tol: float) -> None:
    """Reject a tolerance that is not finite and positive: with inf or nan every check passes."""
    if not 0 < tol < np.inf:
        raise DataError(f"tolerance must be finite and positive, got {tol}")


def _lanczos(
    a: sp.csr_matrix, k: int, order: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k smallest eigenpairs of ``a`` by shift-inverted Lanczos, ascending,
    and the elimination order of its factor: ``order`` if given, else
    ``_hubs_last``'s, else minimum degree's.

    The factor, its solve and its operator are locals here, so they are freed
    when this returns, before an inertia count makes a second factor.
    """
    n = a.shape[0]
    if order is None:
        order = _hubs_last(a)
    lu = _ldl(a, SHIFT, order)
    if order is None:
        order, solve = np.argsort(lu.perm_c), lu.solve
    else:  # lu factors a[order][:, order]: y[order] = lu.solve(x[order])
        rank = np.argsort(order)
        solve = lambda x: lu.solve(x[order])[rank]  # noqa: E731
    op_inv = LinearOperator((n, n), matvec=solve, dtype=float)
    # fixed seed for repeatable runs; positive, so it overlaps every Perron
    # vector, and generic, so it is not orthogonal to eigenvectors that a
    # graph automorphism flips (a uniform start misses lambda_2 of a path)
    v0 = np.random.default_rng(0).uniform(0.5, 1.5, n)
    try:
        vals, vecs = eigsh(
            a,
            k=k,
            sigma=SHIFT,
            which="LM",
            v0=v0,
            tol=0,
            maxiter=10 * n,
            OPinv=op_inv,
        )
    except ArpackNoConvergence as e:
        achieved = float("inf")
        if len(e.eigenvalues):
            part = np.linalg.norm(
                a @ e.eigenvectors - e.eigenvectors * e.eigenvalues, axis=0
            )
            achieved = float(part.max())
        raise NumericalError(
            f"eigensolver did not converge within budget: {len(e.eigenvalues)}/{k} "
            f"pairs, achieved residual {achieved:.3e}"
        ) from e
    ascending = np.argsort(vals)
    return vals[ascending], np.ascontiguousarray(vecs[:, ascending]), order


def smallest_eigenpairs(m: SymmetricMatrix, k: int, tol: float = 1e-8) -> EigenResult:
    """The k algebraically smallest eigenpairs, with verified residuals.

    The matrix size and k alone pick one of two routes.  Shift-inverted
    Lanczos (ARPACK mode 3) factors the positive definite ``A - SHIFT*I`` once
    as an LDL^T, in ``m.order`` if given, else in a minimum-degree order (hubs
    last where ``_hubs_last`` applies), and starts from a fixed vector, so
    repeated runs are deterministic; it serves
    every partial solve (``k < n-1``) above DENSE_LIMIT.  Tiny matrices and
    full or near-full spectra (``k >= n-1``, which Lanczos cannot deliver)
    take a dense decomposition of only the k wanted pairs.  Either route must
    meet ``tol`` on every residual, else NumericalError reports the measured
    residual.  The shift-invert route must also prove that it skipped no
    smaller eigenvalue.  A one-pair solve
    (``k == 1``) of a Z-matrix whose eigenvector has no zero entry proves it
    with one sparse matvec: the Collatz-Wielandt enclosure of the module
    docstring, widened by a rounding margin for the matvec, must have its
    lower end at or above ``lambda - tol``; ``result.enclosure`` then holds
    it.  Every other shift-invert solve (``k >= 2``, a vector with zeros,
    for example on a disconnected interior, a positive off-diagonal entry,
    or a lower end below ``lambda - tol``) proves it by an inertia count, a
    second LDL^T in the same order.  ``result.route`` says which route ran.
    """
    a = m.matrix
    n = a.shape[0]
    if not 1 <= k <= n:
        raise DataError(f"need 1 <= k <= {n}, got k={k}")
    check_tolerance(tol)
    route = "dense" if n <= DENSE_LIMIT or k >= n - 1 else "shift-invert"

    order = None
    if route == "dense":
        vals, vecs = scipy.linalg.eigh(a.toarray(), subset_by_index=[0, k - 1])
        vecs = np.ascontiguousarray(vecs)
    else:
        vals, vecs, order = _lanczos(a, k, m.order)

    avecs = a @ vecs
    residuals = np.linalg.norm(avecs - vecs * vals, axis=0)
    if (residuals > tol).any():
        raise NumericalError(
            f"{route} eigenpair residual {residuals.max():.3e} exceeds tolerance {tol:.3e}"
        )
    gram = vecs.T @ vecs
    ortho_err = np.abs(gram - np.eye(k)).max()
    if ortho_err > ORTHONORMALITY_TOL:
        raise NumericalError(f"eigenvectors not orthonormal (error {ortho_err:.3e})")
    lo, hi = -EIGENVALUE_SLACK, 2.0 + EIGENVALUE_SLACK
    if vals[0] < lo or vals[-1] > hi:
        raise NumericalError(
            f"unexpected spectrum: eigenvalues [{vals[0]:.3e}, {vals[-1]:.3e}] "
            f"outside [{lo:.0e}, 2+{EIGENVALUE_SLACK:.0e}]"
        )
    enclosure = None
    if route == "shift-invert" and k == 1:
        bounds = _collatz_wielandt(a, vecs[:, 0], avecs[:, 0])
        if bounds is not None and bounds[0] >= vals[0] - tol:
            enclosure = bounds
    if route == "shift-invert" and enclosure is None:
        # Lanczos from one start vector sees one direction per distinct
        # eigenvalue, so it can skip a repeated one.  Each computed value lies
        # within tol of a true one, so every eigenvalue below mu must match a
        # computed value below vals[-1] - tol.
        mu = vals[-1] - 2 * tol
        below = int((_ldl(a, mu, order).U.diagonal() < 0).sum())
        found = int((vals < vals[-1] - tol).sum())
        if below > found:
            raise NumericalError(
                f"shift-invert missed eigenvalues: {below} lie below {mu:.6e}, "
                f"only {found} computed ones do"
            )
    return EigenResult(vals, vecs, residuals, tol, route, order, enclosure)


def paired_solves(
    g: Graph, boundary: Iterable[int], k: int, tol: float = 1e-8
) -> tuple[EigenResult, EigenResult | None]:
    """The 2 smallest eigenpairs of g's normalized Laplacian and the k smallest
    of its Dirichlet operator on the rows ``interior(g, boundary)``, from one
    operator and one minimum-degree order (module docstring).  The second is
    None for an empty boundary, whose operator is the first's, and for a
    boundary covering every node, which leaves no operator."""
    full = build_normalized_laplacian(g)
    trad = smallest_eigenpairs(full, k=2, tol=tol)
    inner = interior(g, boundary)
    if not 0 < inner.size < g.node_count:
        return trad, None
    sub = _restrict(replace(full, order=trad.order), inner)
    return trad, smallest_eigenpairs(sub, k=k, tol=tol)


def gaps(g: Graph, boundary: Iterable[int], tol: float = 1e-8) -> tuple[float, float | None]:
    """The traditional and the Dirichlet gap of a connected graph by ``paired_solves``,
    the latter None where its solve is: an empty boundary's exact 0 would print as
    noise.  A disconnected graph's zero second eigenvalue is an error."""
    trad, diri = paired_solves(g, boundary, 1, tol)
    vals = trad.eigenvalues
    if abs(vals[0]) > 1e-10 or vals[1] <= 1e-10:
        raise NumericalError(
            f"unexpected spectrum: smallest eigenvalues {vals[0]:.3e}, {vals[1]:.3e}"
        )
    return float(vals[1]), None if diri is None else float(diri.eigenvalues[0])
