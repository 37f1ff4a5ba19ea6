from __future__ import annotations

import importlib.util
import math
import os
import time
import warnings

import numpy as np
import pytest

import dirspec as ds
import dirspec.cli as cli
from dirspec import clustering, ingest, spectral
from dirspec.cli import main, parse_generator_spec

from conftest import isp_like_graph, slow_eccentricity, slow_format_cell, slow_grow_rows


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_gen_command_tree(tmp_path):
    assert main(["gen", "tree:3x4", "--out", str(tmp_path)]) == 0
    g = ds.parse_edge_list(tmp_path / "graph.edges")
    assert g.node_count == 1 + 3 * (2**4 - 1) == 46


def test_gen_command_grid_and_whisker(tmp_path):
    assert main(["gen", "grid:2x2", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "graph.edges").read_text()
    assert len(text.splitlines()) == 4

    assert main(["gen", "whisker:10x5x3", "--out", str(tmp_path)]) == 0
    g = ds.parse_edge_list(tmp_path / "graph.edges")
    assert g.node_count == 25
    assert int((g.degree == 1).sum()) == 5


def test_generator_spec_random_uses_seed():
    g1 = parse_generator_spec("random:20x0.2", seed=5)
    g2 = parse_generator_spec("random:20x0.2", seed=5)
    g3 = parse_generator_spec("random:20x0.2", seed=6)
    assert g1 == g2
    assert g1.labeled_edges() != g3.labeled_edges()


def test_gap_command_tree(tmp_path):
    rc = main(
        ["gap", "--gen", "tree:3x2", "--boundary", "leaves", "--out", str(tmp_path)]
    )
    assert rc == 0
    header, rows = read_csv(tmp_path / "gap.csv")
    assert header == ["n", "m", "boundary_size", "traditional_gap", "dirichlet_gap"]
    (row,) = rows
    assert [int(x) for x in row[:3]] == [10, 9, 6]
    assert float(row[4]) == pytest.approx(1 - 1 / math.sqrt(3), abs=1e-5)


def test_gap_command_multiple_inputs(tmp_path):
    for name, spec in (("a.edges", "tree:3x2"), ("b.edges", "whisker:5x2x2")):
        g = parse_generator_spec(spec)
        ds.write_graph(g, tmp_path / name)
    rc = main(
        [
            "gap",
            "--input",
            str(tmp_path / "a.edges"),
            str(tmp_path / "b.edges"),
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    _, rows = read_csv(tmp_path / "gap.csv")
    assert len(rows) == 2
    assert int(rows[0][0]) == 10
    assert int(rows[1][0]) == 9


def test_gap_command_factorization_count(tmp_path, monkeypatch):
    # per map, the k=2 traditional solve orders and factors once and its
    # inertia factor reuses that order; the k=1 Dirichlet solve factors in
    # that order restricted to the interior and is certified by its
    # enclosure.  So minimum degree runs once per map, and every factor has
    # diagonal pivots.
    paths = []
    for seed in (7, 8):
        g = isp_like_graph(400, seed=seed)
        b = ds.resolve_boundary(g, "degree-one")
        assert ds.is_connected(g) and 0 < len(b)
        assert ds.interior(g, b).size > spectral.DENSE_LIMIT
        paths.append(str(tmp_path / f"isp{seed}.edges"))
        ds.write_graph(g, paths[-1])
    factored = []
    real_splu = spectral.splu

    def counting_splu(*args, **kwargs):
        factored.append((kwargs["permc_spec"], kwargs["diag_pivot_thresh"]))
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(spectral, "splu", counting_splu)
    argv = ["gap", "--input", *paths, "--boundary", "degree-one"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert factored == 2 * [("MMD_AT_PLUS_A", 0.0), ("NATURAL", 0.0), ("NATURAL", 0.0)]


def test_twin_grids_reach_the_one_pair_inertia_count(tmp_path, monkeypatch):
    # the twin-grid file of tools/same_outputs.py: its interior is two equal
    # grids, so the Dirichlet eigenvector carries both signs, no enclosure
    # holds, and the one-pair solve is proved by an inertia count instead
    tool = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", "same_outputs.py")
    spec = importlib.util.spec_from_file_location("same_outputs", tool)
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    path = tmp_path / "twin-grids.edges"
    path.write_bytes(same_outputs.twin_grids())
    results = []
    real = spectral.smallest_eigenpairs

    def recording(m, k, tol):
        results.append(real(m, k, tol))
        return results[-1]

    monkeypatch.setattr(spectral, "smallest_eigenpairs", recording)
    argv = ["gap", "--input", str(path), "--boundary", "grid-perimeter", "--out", str(tmp_path)]
    assert main(argv) == 0
    trad, diri = results
    assert diri.eigenvectors.shape == (200, 1)
    assert diri.route == "shift-invert" and diri.enclosure is None
    x = diri.eigenvectors[:, 0]
    assert (x > 0).any() and (x < 0).any()


def _count_calls(monkeypatch, name):
    """The argument tuples of every call to ``spectral.<name>``, wrapped at each
    module that binds it."""
    calls = []
    real = getattr(spectral, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in (spectral, clustering, cli):
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_cluster_sweep_orders_and_assembles_once(tmp_path, monkeypatch):
    # the Dirichlet operator is the interior block of the one assembled
    # Laplacian, and its k=2 solve takes the traditional solve's order
    # restricted to the interior, so minimum degree runs once per call
    g = isp_like_graph(400, seed=7)
    b = ds.resolve_boundary(g, "degree-one")
    assert ds.is_connected(g) and ds.interior(g, b).size > spectral.DENSE_LIMIT
    ds.write_graph(g, tmp_path / "isp.edges")
    factored = []
    real_splu = spectral.splu

    def counting_splu(*args, **kwargs):
        factored.append(kwargs["permc_spec"])
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(spectral, "splu", counting_splu)
    built = _count_calls(monkeypatch, "build_normalized_laplacian")
    argv = ["cluster-sweep", "--input", str(tmp_path / "isp.edges"), "--out", str(tmp_path)]
    assert main(argv + ["--boundary", "degree-one"]) == 0
    # traditional Lanczos and inertia, then Dirichlet Lanczos and inertia
    assert factored == ["MMD_AT_PLUS_A", "NATURAL", "NATURAL", "NATURAL"]
    assert len(built) == 1
    # an empty boundary leaves one operator, so both families rank by one solve
    solved = _count_calls(monkeypatch, "smallest_eigenpairs")
    assert main(["cluster-sweep", "--gen", "grid:10x10", "--out", str(tmp_path)]) == 0
    assert [m.n for m, *_ in solved] == [100]


def test_grow_assembles_each_ball_once(tmp_path, monkeypatch):
    built = []
    real = spectral.build_normalized_laplacian

    def counting(g):
        built.append(g.node_count)
        return real(g)

    monkeypatch.setattr(spectral, "build_normalized_laplacian", counting)
    assert main(["grow", "--gen", "tree:3x6", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "grow.csv")
    assert all(r[3] for r in rows[:-1])  # every ball but the whole tree has a boundary
    assert built == [int(r[1]) for r in rows]


def test_gap_command_finds_components_once_per_map(tmp_path, monkeypatch):
    paths = []
    for seed in (1, 2, 3):
        ds.write_graph(isp_like_graph(120, seed=seed), tmp_path / f"isp{seed}.edges")
        paths.append(str(tmp_path / f"isp{seed}.edges"))
    calls = []
    real = ds.graph.csgraph.connected_components

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(ds.graph.csgraph, "connected_components", counting)
    assert main(["gap", "--input", *paths, "--out", str(tmp_path)]) == 0
    assert len(calls) == 3


def test_empty_boundary_leaves_dirichlet_cell_empty(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a grid has no stub; the empty cell says it
        assert main(["gap", "--gen", "grid:10x10", "--out", str(tmp_path)]) == 0
        assert main(["grow", "--gen", "grid:20x20", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "gap.csv")
    assert rows == [["100", "180", "0", rows[0][3], ""]] and float(rows[0][3]) > 0
    _, rows = read_csv(tmp_path / "grow.csv")
    assert rows[-1][:2] == ["20", "400"] and float(rows[-1][2]) > 0
    assert rows[-1][3] == ""
    assert all(r[3] for r in rows[:-1])


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_tolerance_must_be_finite_and_positive(tmp_path, capsys, tol):
    commands = [
        ["gap", "--gen", "grid:30x30", "--boundary", "grid-perimeter"],
        ["grow", "--gen", "grid:5x5"],
        ["cluster-sweep", "--gen", "whisker:5x2x2"],
        ["tree-converge", "--degree", "3", "--max-levels", "2"],
        # every tree too large for a numeric solve: no solve checks the value
        ["tree-converge", "--degree", "50", "--max-levels", "2"],
    ]
    for argv in commands:
        assert main([*argv, f"--tol={tol}", "--out", str(tmp_path)]) == 2
        assert "data error: tolerance must be finite and positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec", ["tree:3x100000", "tree:9x30000000"])
def test_gen_deep_tree_is_too_large(tmp_path, capsys, spec):
    start = time.perf_counter()
    rc = main(["gen", spec, "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    assert rc == 2
    assert "data error: generator output too large" in capsys.readouterr().err
    assert elapsed < 0.1


def test_bad_edge_list_bytes_and_negative_seed_are_data_errors(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_bytes(b"a b\n\xff c\n")
    assert main(["gap", "--input", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"data error: {bad}: not UTF-8 text (invalid start byte)\n"
    assert main(["gap", "--gen", "random:50x0.2", "--seed", "-1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "data error: gen_random_connected requires seed >= 0, got -1\n"
    assert not (tmp_path / "gap.csv").exists()


def test_gap_command_no_interior_exit_code(tmp_path):
    # a map its policy covers has no Dirichlet operator: the cell stays empty
    (tmp_path / "k2.edges").write_text("a b\n")
    rc = main(
        [
            "gap",
            "--input",
            str(tmp_path / "k2.edges"),
            "--boundary",
            "degree-one",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    assert (tmp_path / "gap.csv").read_text().splitlines()[1] == "2,1,2,2,"


def test_empty_boundary_note_only_from_cluster_sweep(tmp_path, capsys):
    # grid:10x10 has no stub: gap and grow leave the cell empty, tree-converge
    # never sees it, and cluster-sweep, with no cell to say it, notes it
    commands = [
        ["gap", "--gen", "grid:10x10"],
        ["grow", "--gen", "grid:10x10"],
        ["tree-converge", "--degree", "3", "--max-levels", "2"],
        ["cluster-sweep", "--gen", "grid:10x10"],
    ]
    notes = []
    for argv in commands:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        notes.append([line for line in err.splitlines() if line.startswith("note:")])
    assert notes[:3] == [[], [], []]
    assert notes[3] == ["note: empty boundary; Dirichlet operator is the traditional one"]


def test_usage_errors_exit_code(tmp_path):
    assert main(["gap", "--gen", "bogus:1x2", "--out", str(tmp_path)]) == 1
    assert main(["gap", "--gen", "grid:axb", "--out", str(tmp_path)]) == 1
    assert main(["gap", "--out", str(tmp_path)]) == 1  # no source
    (tmp_path / "k3.edges").write_text("a b\nb c\nc a\n")
    for command in ("gap", "grow", "cluster-sweep"):  # two sources
        argv = [command, "--input", str(tmp_path / "k3.edges"), "--gen", "grid:4x4"]
        assert main([*argv, "--out", str(tmp_path)]) == 1
    assert main(["nonsense"]) == 1
    # a --sizes list with no size, or with a size below 1, fails before any solve
    for sizes in (",", "", "0,-3", "5,0"):
        argv = ["cluster-sweep", "--gen", "whisker:5x2x2", "--sizes", sizes]
        assert main([*argv, "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "sweep_sizes.csv").exists()


def test_unwritable_out_is_a_data_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a regular file, not a directory\n")
    commands = [
        ["gen", "grid:4x4"],
        ["gap", "--gen", "grid:4x4", "--boundary", "grid-perimeter"],
        ["cluster-sweep", "--gen", "whisker:5x2x2"],
    ]
    for argv in commands:
        assert main([*argv, "--out", str(taken)]) == 2
        assert f"data error: cannot write {taken}" in capsys.readouterr().err
    # a cut file whose name is taken by a directory
    out = tmp_path / "cuts"
    for k in range(1, 20):  # whisker:5x2x2 has 9 nodes
        (out / f"cut_{k}.edges").mkdir(parents=True)
    argv = ["cluster-sweep", "--gen", "whisker:5x2x2", "--emit-cuts", "--out", str(out)]
    assert main(argv) == 2
    assert f"data error: cannot write {out / 'cut_'}" in capsys.readouterr().err
    assert taken.read_text() == "a regular file, not a directory\n"


def test_numerical_error_exit_code(tmp_path, capsys):
    for spec in ("grid:5x5", "grid:30x17"):  # dense and shift-invert routes
        argv = ["gap", "--gen", spec, "--boundary", "grid-perimeter", "--tol", "1e-30"]
        rc = main(argv + ["--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical error:" in err and "exceeds tolerance 1.000e-30" in err
    assert not (tmp_path / "gap.csv").exists()


def test_grow_numerical_error_exit_code(tmp_path, capsys):
    # a failed solve on any ball stops the run: no row is left empty in its place
    for spec in ("grid:5x5", "grid:30x17"):
        rc = main(["grow", "--gen", spec, "--tol", "1e-30", "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical error:" in err and "exceeds tolerance 1.000e-30" in err
    assert not (tmp_path / "grow.csv").exists()


def test_grow_ball_without_interior_leaves_dirichlet_cell_empty(tmp_path):
    # the one ball of K2 is all boundary: no Dirichlet operator is left
    assert main(["grow", "--gen", "grid:1x2", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "grow.csv").read_text().splitlines() == [
        "r,n_sub,traditional_gap,dirichlet_gap",
        "1,2,2,",
    ]


def test_tree_converge_command(tmp_path):
    rc = main(
        ["tree-converge", "--degree", "3", "--max-levels", "8", "--out", str(tmp_path)]
    )
    assert rc == 0
    header, rows = read_csv(tmp_path / "tree_converge.csv")
    assert header == ["L", "analytic_gap", "numeric_gap"]
    assert len(rows) == 8
    analytic = [float(r[1]) for r in rows]
    assert all(b < a for a, b in zip(analytic, analytic[1:]))
    for r in rows:
        if r[2]:
            assert float(r[2]) == pytest.approx(float(r[1]), abs=1e-6)


def test_tree_converge_numeric_column_cutoff(tmp_path):
    rc = main(
        ["tree-converge", "--degree", "3", "--max-levels", "10", "--out", str(tmp_path)]
    )
    assert rc == 0
    _, rows = read_csv(tmp_path / "tree_converge.csv")
    # trees beyond 2048 nodes leave the numeric field empty (depth 11: 3070+ nodes)
    present = [bool(r[2]) for r in rows]
    assert present == [ds.tree_node_count(3, L + 1) <= 2048 for L in range(1, 11)]
    assert not all(present) and any(present)


def _deepest_numeric_levels(degree: int) -> int:
    levels = 0
    while ds.tree_node_count(degree, levels + 2) <= cli.NUMERIC_TREE_LIMIT:
        levels += 1
    return levels


@pytest.mark.parametrize("degree", [3, 4, 5, 10])
def test_tree_dirichlet_operator_is_a_leading_block(degree):
    # ids run level by level and interior degrees do not change with depth,
    # so each depth's operator is a leading block of the deepest tree's one
    deepest = _deepest_numeric_levels(degree)
    assert deepest >= 2
    lap = spectral.build_normalized_laplacian(ds.gen_tree(degree, deepest + 1))
    for levels in range(1, deepest + 1):
        block = spectral._restrict(lap, np.arange(ds.tree_node_count(degree, levels)))
        tree = ds.gen_tree(degree, levels + 1)
        want = spectral.build_dirichlet_laplacian(tree, ds.resolve_boundary(tree, "leaves"))
        for name in ("indptr", "indices", "data"):
            got_a, want_a = getattr(block.matrix, name), getattr(want.matrix, name)
            assert got_a.dtype == want_a.dtype and np.array_equal(got_a, want_a), (levels, name)
        assert block.matrix.shape == want.matrix.shape
        assert np.array_equal(block.index_map, want.index_map), levels
        assert block.order is None and want.order is None


@pytest.mark.parametrize("degree", [3, 4, 5, 10])
def test_tree_converge_cells_print_as_the_per_graph_routes(tmp_path, degree):
    deepest = _deepest_numeric_levels(degree)
    flags = ["--degree", str(degree), "--max-levels", str(deepest + 2)]
    assert main(["tree-converge", *flags, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "tree_converge.csv")
    assert [int(r[0]) for r in rows] == list(range(1, deepest + 3))
    for levels, analytic, numeric in rows:
        levels = int(levels)
        assert analytic == slow_format_cell(ds.dirichlet_gap_analytic(degree, levels))
        if levels > deepest:
            assert numeric == ""
            continue
        tree = ds.gen_tree(degree, levels + 1)
        m = ds.build_dirichlet_laplacian(tree, ds.resolve_boundary(tree, "leaves"))
        gap = float(ds.smallest_eigenpairs(m, 1).eigenvalues[0])
        assert numeric == slow_format_cell(gap), levels


def test_tree_converge_large_depth(tmp_path):
    # the smallest root's residual stays at the rounding floor at depth 1000,
    # where the full family's largest roots exceed the 1e-12 guard
    rc = main(
        ["tree-converge", "--degree", "8", "--max-levels", "1000", "--out", str(tmp_path)]
    )
    assert rc == 0
    _, rows = read_csv(tmp_path / "tree_converge.csv")
    assert [int(r[0]) for r in rows] == list(range(1, 1001))
    analytic = [float(r[1]) for r in rows]
    assert all(b <= a for a, b in zip(analytic, analytic[1:]))
    assert analytic[-1] > ds.infinite_tree_gap(8)


@pytest.mark.parametrize(
    "flags",
    [
        ["--degree", "2", "--max-levels", "5"],
        ["--degree", "3", "--max-levels", "0"],
        ["--degree", "3", "--max-levels", "-2"],
        ["--degree", "3", "--max-levels", str(ingest.SIZE_GUARD + 1)],
    ],
)
def test_tree_converge_usage_errors(tmp_path, capsys, monkeypatch, flags):
    def never(*args):
        raise AssertionError("a rejected depth reached the root bracketing")

    monkeypatch.setattr(cli, "dirichlet_gap_analytic", never)
    assert main(["tree-converge", *flags, "--out", str(tmp_path)]) == 1
    assert "usage error: tree-converge requires" in capsys.readouterr().err
    assert not (tmp_path / "tree_converge.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["tree-converge", "--degree", "3", "--max-levels", "5", "--seed", "1"],
        ["tree-converge", "--degree", "3", "--max-levels", "5", "--keep-disconnected"],
        ["gen", "tree:3x4", "--tol", "1e-9"],
        ["gen", "tree:3x4", "--keep-disconnected"],
    ],
)
def test_flags_a_command_never_reads_are_usage_errors(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 1
    assert "usage error: unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_grow_command_grid(tmp_path):
    rc = main(["grow", "--gen", "grid:15x15", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "grow.csv")
    assert header == ["r", "n_sub", "traditional_gap", "dirichlet_gap"]
    g = ds.gen_grid(15, 15)
    assert len(rows) == slow_eccentricity(g, ds.one_median(g)) == 14
    diri = [float(r[3]) for r in rows if r[3]]
    assert all(b < a for a, b in zip(diri, diri[1:]))


@pytest.mark.parametrize(
    "spec, seed",
    [("grid:20x20", 0), ("tree:3x6", 0), ("whisker:20x8x4", 0), ("random:60x0.08", 3)],
)
def test_grow_rows_match_slow_composition(tmp_path, monkeypatch, spec, seed):
    written = []
    monkeypatch.setattr(cli, "write_csv", lambda path, header, rows: written.append(rows))
    argv = ["grow", "--gen", spec, "--seed", str(seed), "--out", str(tmp_path)]
    assert main(argv) == 0
    assert written == [slow_grow_rows(parse_generator_spec(spec, seed))]


def test_grow_command_full_radius_matches_gap(tmp_path):
    rc = main(["grow", "--gen", "whisker:6x3x2", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "grow.csv")
    rc = main(
        ["gap", "--gen", "whisker:6x3x2", "--boundary", "degree-one", "--out", str(tmp_path)]
    )
    assert rc == 0
    _, gap_rows = read_csv(tmp_path / "gap.csv")
    last = rows[-1]
    assert int(last[1]) == 12
    assert float(last[2]) == float(gap_rows[0][3])
    assert float(last[3]) == float(gap_rows[0][4])


def test_cluster_sweep_command(tmp_path):
    args = [
        "cluster-sweep",
        "--gen",
        "whisker:10x4x2",
        "--boundary",
        "degree-one",
        "--out",
    ]
    assert main(args + [str(tmp_path / "r1")]) == 0
    header, rows = read_csv(tmp_path / "r1" / "sweep_sizes.csv")
    assert header == ["k", "h_D", "c_D", "h_T", "c_T"]
    assert len(rows) >= 5
    agg_header, agg_rows = read_csv(tmp_path / "r1" / "sweep_aggregate.csv")
    assert agg_header == [
        "cat_le_le",
        "cat_le_gt",
        "cat_gt_le",
        "cat_gt_gt",
        "avg_dc",
        "avg_dh",
        "avg_cT",
        "avg_hT",
    ]
    assert len(agg_rows) == 1
    assert sum(int(x) for x in agg_rows[0][:4]) == len(rows)

    # reruns are byte-identical
    assert main(args + [str(tmp_path / "r2")]) == 0
    for name in ("sweep_sizes.csv", "sweep_aggregate.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def _slow_cut_lines(g, cut) -> list[str]:
    """Edges inside a cut, by each member ascending and its larger neighbors."""
    members = sorted(cut)
    inset = set(members)
    return [
        f"{g.labels[u]} {g.labels[v]}"
        for u in members
        for v in g.neighbors(u)
        if v > u and int(v) in inset
    ]


def test_cluster_sweep_sizes_filter_and_cut_files(tmp_path, monkeypatch):
    calls = []

    def recording_sweep(g, *args, **kwargs):
        calls.append((g, ds.sweep(g, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(cli.clustering, "sweep", recording_sweep)
    cases = [
        ("whisker:10x4x2", ["--sizes", "3,5"]),
        ("random:30x0.15", []),
        ("grid:6x7", ["--boundary", "grid-perimeter"]),
    ]
    for i, (spec, flags) in enumerate(cases):
        out = tmp_path / str(i)
        assert main(["cluster-sweep", "--gen", spec, *flags, "--emit-cuts", "--out", str(out)]) == 0
        _, rows = read_csv(out / "sweep_sizes.csv")
        kept = [int(r[0]) for r in rows]
        if "--sizes" in flags:
            assert set(kept) <= {3, 5}
        g, report = calls[i]
        assert [row.k for row in report.rows] == kept
        assert sorted(p.name for p in out.glob("cut_*.edges")) == sorted(
            f"cut_{k}.edges" for k in kept
        )
        # every file line by line against the report's Dirichlet cut
        for row, cut in zip(report.rows, report.dirichlet_cuts):
            text = (out / f"cut_{row.k}.edges").read_text()
            assert text.splitlines() == _slow_cut_lines(g, cut)
            assert text.endswith("\n") or text == ""


def test_keep_disconnected_flag(tmp_path, capsys):
    # the flag is gone: every command reduces a disconnected input to its
    # largest component (ties: lowest label id) and writes that one's rows
    two = "a b\nb c\nc a\na p\nx y\ny z\nz x\nx q\n"  # two triangles with a pendant each
    (tmp_path / "two.edges").write_text(two)
    (tmp_path / "one.edges").write_text("a b\nb c\nc a\na p\n")
    # two disjoint 10x10 grids: large enough for the shift-invert route
    grid = sorted(ds.gen_grid(10, 10).labeled_edges())
    lines = [f"{p}{u} {p}{v}" for p in "ab" for u, v in grid]
    (tmp_path / "grids.edges").write_text("\n".join(lines) + "\n")
    (tmp_path / "grid.edges").write_text("\n".join(lines[: len(grid)]) + "\n")
    runs = [
        ("gap", [], "two", "one", ["gap.csv"]),
        ("grow", [], "two", "one", ["grow.csv"]),
        ("cluster-sweep", [], "two", "one", ["sweep_sizes.csv", "sweep_aggregate.csv"]),
        ("gap", ["--boundary", "grid-perimeter"], "grids", "grid", ["gap.csv"]),
    ]
    for i, (command, flags, whole, part, names) in enumerate(runs):
        argv = [command, *flags, "--input", str(tmp_path / f"{whole}.edges")]
        out = tmp_path / f"out{i}"
        assert main(argv + ["--keep-disconnected", "--out", str(out / "flag")]) == 1
        assert "usage error: unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv + ["--out", str(out / "whole")]) == 0
        assert "note: input disconnected; using largest component" in capsys.readouterr().err
        argv = [command, *flags, "--input", str(tmp_path / f"{part}.edges")]
        assert main(argv + ["--out", str(out / "part")]) == 0
        for name in names:
            assert (out / "whole" / name).read_text() == (out / "part" / name).read_text()
