"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each criterion is asserted exactly at its stated tolerance, against the
operator the program computes: closed forms where they are exact, and
otherwise the slow independent oracles in conftest or a bound proved from the
eigenvalue condition.  Criterion 7's direction is asserted as written although
the degenerate eigenspace of its graph leaves the sign to the solver's basis;
its failure message carries the measured value.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np

import dirspec as ds
from dirspec.cli import main
from dirspec.spectral import (
    build_dirichlet_laplacian,
    build_normalized_laplacian,
    smallest_eigenpairs,
)

from conftest import (
    merged_tree_values,
    slow_grid_gap,
    slow_normalized_laplacian,
    slow_radial_tree_gap,
)

TWO_TRIANGLE_EDGES = [
    ("a", "b"), ("b", "c"), ("a", "c"),
    ("d", "e"), ("e", "f"), ("d", "f"),
    ("c", "d"),
]


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException as e:
        print(f"CRITERION {num} [{label}]: FAIL - {e}")
        raise
    print(f"CRITERION {num} [{label}]: PASS")


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def quiet_boundary(g, policy):
    return ds.resolve_boundary(g, policy)


def test_criterion_1_grid_table_row(tmp_path):
    with criterion(1, "grid Table-1 row"):
        t0 = time.time()
        rc = main(
            [
                "gap",
                "--gen",
                "grid:100x100",
                "--boundary",
                "grid-perimeter",
                "--out",
                str(tmp_path),
            ]
        )
        elapsed = time.time() - t0
        assert rc == 0
        header, rows = read_csv(tmp_path / "gap.csv")
        (row,) = rows
        n, m, bsize = (int(x) for x in row[:3])
        trad, diri = float(row[3]), float(row[4])
        assert (n, m, bsize) == (10000, 19800, 396)
        assert abs(trad - 0.00025) <= 3e-5, f"traditional gap {trad}"
        assert abs(diri - 0.00050) <= 5e-5, f"dirichlet gap {diri}"
        assert elapsed <= 120, f"runtime {elapsed:.1f}s"
        closed_diri = 1 - math.cos(math.pi / 99)
        assert abs(diri - closed_diri) <= 1e-6, (
            f"dirichlet {diri} vs closed form {closed_diri}"
        )
        # (1 - cos(pi/R))/2 is the gap of the grid padded with self-loops to
        # degree 4.  The free-boundary operator keeps perimeter degrees 2 and 3,
        # is not separable, and sits ~3.8/R^3 above it (4.9e-4 at R=20), so
        # its gap comes from a dense reflection-sector oracle instead, checked
        # first against the full dense spectrum.
        small = ds.gen_grid(20, 20)
        full = np.linalg.eigvalsh(slow_normalized_laplacian(small).toarray())
        sector_small = slow_grid_gap(small)
        assert abs(sector_small - full[1]) <= 1e-10, (
            f"20x20 sector oracle {sector_small!r} vs full dense spectrum {full[1]!r}"
        )
        oracle = slow_grid_gap(ds.gen_grid(100, 100))
        assert abs(trad - oracle) <= 1e-6, (
            f"traditional {trad:.9f} vs reflection-sector oracle {oracle:.9f} "
            f"of the free-boundary operator: difference {abs(trad - oracle):.2e}"
        )


def test_criterion_2_tree_gap_convergence():
    with criterion(2, "tree gap convergence and oracle agreement"):
        t0 = time.time()
        inf3 = ds.infinite_tree_gap(3)
        gaps = [ds.dirichlet_gap_analytic(3, levels) for levels in range(1, 201)]
        assert all(b < a for a, b in zip(gaps, gaps[1:])), "not strictly decreasing"
        assert all(g > inf3 for g in gaps), "gap fell below the infinite-tree value"
        worst = 0.0
        for degree in (3, 4, 5):
            for levels in range(1, 8):
                analytic = ds.dirichlet_gap_analytic(degree, levels)
                tree = ds.gen_tree(degree, levels + 1)
                m = build_dirichlet_laplacian(tree, quiet_boundary(tree, "leaves"))
                numeric = smallest_eigenpairs(m, 1).eigenvalues[0]
                worst = max(worst, abs(analytic - numeric))
        assert worst <= 1e-8, f"worst analytic/numeric difference {worst:.2e}"
        elapsed = time.time() - t0
        assert elapsed <= 60, f"runtime {elapsed:.1f}s"
        assert abs(inf3 - 0.057191) < 1e-6, f"infinite-tree gap {inf3:.9f}"
        radial = slow_radial_tree_gap(3, 200)
        assert abs(gaps[199] - radial) <= 1e-12, (
            f"gap(L=200) = {gaps[199]!r} vs radial tridiagonal oracle {radial!r}"
        )
        # With m = L+1 and c = d/(d-2), the condition in tree_spectrum is
        # positive on (0, pi/(2m)] and negative at pi/m, so the smallest root a
        # lies in (pi/(2m), pi/m), where tan(ma) = -c tan(a).  For t = pi - ma in
        # (0, pi/2), tan(t) = c tan(a) < tan(ca) if ca < pi/2 (tan(x)/x rises),
        # so t < ca always and pi/(m+c) < a < pi/m.  gap - gap_inf is
        # k(1 - cos a) with k = 2 sqrt(d-1)/d, increasing in a.
        d = 3
        k = 2 * math.sqrt(d - 1) / d
        for levels, gap in enumerate(gaps, start=1):
            lower = k * (1 - math.cos(math.pi / (levels + 1 + d / (d - 2))))
            upper = k * (1 - math.cos(math.pi / (levels + 1)))
            assert lower < gap - inf3 < upper, (
                f"L={levels}: gap - gap_inf = {gap - inf3:.6e} outside the root "
                f"bound k(1 - cos(pi/(L+1+d/(d-2)))) = {lower:.6e} .. "
                f"k(1 - cos(pi/(L+1))) = {upper:.6e}"
            )


def test_criterion_3_traditional_tree_gap_vanishes():
    with criterion(3, "traditional tree gap decays"):
        gaps = []
        for depth in range(4, 11):
            gaps.append(ds.gaps(ds.gen_tree(3, depth), ())[0])
        assert all(b < a for a, b in zip(gaps, gaps[1:])), f"not decreasing: {gaps}"
        assert gaps[-1] < 1e-3, f"depth-10 gap {gaps[-1]}"
        # Cheeger bound via one root branch: e=1, vol = 2*1022 + 1
        assert gaps[-1] <= 2 / 2045 + 1e-12


def test_criterion_4_cheeger_inequality_suite():
    with criterion(4, "Cheeger inequality, 200 random graphs"):
        t0 = time.time()
        violations = 0
        for i in range(200):
            n = 4 + i % 7
            p = 0.3 + 0.1 * ((i // 7) % 5)
            g = ds.gen_random_connected(n, p, seed=1000 + i)
            h = ds.brute_force_cheeger_constant(g).value
            lam = ds.gaps(g, ())[0]
            if not (2 * h >= lam >= h * h / 2 - 1e-9):
                violations += 1
        assert violations == 0, f"{violations} violations"
        assert time.time() - t0 <= 60


def local_suite_cases(count: int):
    """Deterministic stream of (graph, boundary) pairs with interior size <= 12."""
    rng = np.random.default_rng(7)
    produced = 0
    i = 0
    while produced < count:
        i += 1
        n = 5 + i % 9
        g = ds.gen_random_connected(n, 0.35 + 0.05 * (i % 6), seed=5000 + i)
        bsize = 1 + int(rng.integers(0, n - 2))
        b = [int(v) for v in rng.permutation(n)[:bsize]]
        if not 1 <= g.node_count - len(b) <= 12:
            continue
        produced += 1
        yield g, b


def test_criterion_5_local_cheeger_inequality_suite():
    with criterion(5, "local Cheeger inequality, 200 random graphs"):
        violations = 0
        for g, b in local_suite_cases(200):
            h_local = ds.brute_force_local_cheeger_constant(g, b).value
            lam = smallest_eigenpairs(build_dirichlet_laplacian(g, b), 1).eigenvalues[0]
            # the computed eigenvalue carries residual <= 1e-8; equality cases
            # (h_S == lambda_S) need the same 1e-9 slack the lower side has
            if not (h_local >= lam - 1e-9 and lam >= h_local * h_local / 2 - 1e-9):
                violations += 1
        assert violations == 0, f"{violations} violations"


def test_criterion_6_full_spectrum_agreement():
    with criterion(6, "analytic/numeric full-spectrum agreement"):
        for degree, levels in ((3, 1), (3, 2), (3, 3), (4, 1), (4, 2)):
            values = merged_tree_values(degree, levels)
            tree = ds.gen_tree(degree, levels + 1)
            m = build_dirichlet_laplacian(tree, quiet_boundary(tree, "leaves"))
            dense = smallest_eigenpairs(m, m.n).eigenvalues
            gap_a = max(float(min(abs(v - dense))) for v in values)
            gap_b = max(float(min(abs(x - values))) for x in dense)
            assert gap_a <= 1e-8 and gap_b <= 1e-8, (
                f"(degree={degree}, levels={levels}) set distance {gap_a:.2e}/{gap_b:.2e}"
            )
            multiplicities = [
                (float(v), int((np.abs(dense - v) < 1e-8).sum())) for v in values
            ]
            assert sum(c for _, c in multiplicities) == m.n
            print(f"  spectrum multiplicities degree={degree} levels={levels}: "
                  + ", ".join(f"{v:.6f} x{c}" for v, c in multiplicities))


def test_criterion_7_clustering_direction(tmp_path):
    with criterion(7, "clustering comparison direction"):
        tri = ds.build_graph(TWO_TRIANGLE_EDGES)
        b = quiet_boundary(tri, "degree-one")
        report = ds.sweep(tri, b)
        row3 = next(r for r in report.rows if r.k == 3)
        best = ds.brute_force_cheeger_constant(tri)
        assert best.value == 1 / 7
        assert row3.h_d == best.value, f"size-3 cut h {row3.h_d} vs optimal {best.value}"
        assert row3.h_t == best.value

        g = ds.gen_whisker(20, 8, 4)
        wb = quiet_boundary(g, "degree-one")
        wreport = ds.sweep(g, wb)
        assert wreport.avg_dc < 0, (
            f"avg c_D - c_T = {wreport.avg_dc} (not < 0): the second eigenvalue of "
            f"this symmetric benchmark is 7-fold degenerate on both operators, so "
            f"the embedding basis is solver-arbitrary; randomized bases give "
            f"positive averages more often than negative"
        )


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "byte-identical CLI reruns"):
        commands = {
            "gen": ["gen", "random:15x0.3", "--seed", "3"],
            "gap": ["gap", "--gen", "tree:3x4", "--boundary", "leaves"],
            "tree": ["tree-converge", "--degree", "3", "--max-levels", "10"],
            "grow": ["grow", "--gen", "grid:9x9"],
            "sweep": [
                "cluster-sweep",
                "--gen",
                "whisker:10x4x2",
                "--boundary",
                "degree-one",
                "--emit-cuts",
            ],
        }
        for name, argv in commands.items():
            out1 = tmp_path / f"{name}_1"
            out2 = tmp_path / f"{name}_2"
            assert main(argv + ["--out", str(out1)]) == 0, f"{name} failed"
            assert main(argv + ["--out", str(out2)]) == 0, f"{name} rerun failed"
            files1 = sorted(p.name for p in out1.iterdir())
            files2 = sorted(p.name for p in out2.iterdir())
            assert files1 == files2 and files1, f"{name}: file sets differ"
            for fname in files1:
                b1 = (out1 / fname).read_bytes()
                b2 = (out2 / fname).read_bytes()
                assert b1 == b2, f"{name}/{fname} differs between reruns"


def test_criterion_9_eigensolver_contract():
    with criterion(9, "eigensolver residual and range contract"):
        cases = []
        grid = ds.gen_grid(100, 100)
        cases.append(("grid traditional", build_normalized_laplacian(grid), 2))
        cases.append(
            (
                "grid dirichlet",
                build_dirichlet_laplacian(grid, quiet_boundary(grid, "grid-perimeter")),
                1,
            )
        )
        deep = ds.gen_tree(3, 10)
        cases.append(("deep tree traditional", build_normalized_laplacian(deep), 2))
        wh = ds.gen_whisker(20, 8, 4)
        cases.append(("whisker traditional", build_normalized_laplacian(wh), 2))
        cases.append(
            (
                "whisker dirichlet",
                build_dirichlet_laplacian(wh, quiet_boundary(wh, "degree-one")),
                2,
            )
        )
        tri = ds.build_graph(TWO_TRIANGLE_EDGES)
        cases.append(("two-triangle", build_normalized_laplacian(tri), 6))
        for i in range(5):
            g = ds.gen_random_connected(8, 0.4, seed=9000 + i)
            cases.append((f"random {i}", build_normalized_laplacian(g), 3))
        for label, m, k in cases:
            res = smallest_eigenpairs(m, k, tol=1e-8)
            assert (res.residuals <= 1e-8).all(), f"{label}: residual {res.residuals.max()}"
            assert res.eigenvalues[0] >= -1e-9, f"{label}: {res.eigenvalues[0]}"
            assert res.eigenvalues[-1] <= 2 + 1e-9, f"{label}: {res.eigenvalues[-1]}"
