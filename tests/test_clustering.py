from __future__ import annotations

import importlib

import numpy as np
import pytest

import dirspec as ds
from dirspec.clustering import (
    CutRecord,
    Embedding,
    aggregate_row,
    embed,
    evaluate_cut,
    rank_nodes,
    reattach_boundary,
    size_rows,
    sweep,
    two_means,
)
from dirspec.errors import DataError, NumericalError
from dirspec.spectral import build_dirichlet_laplacian, build_normalized_laplacian

from conftest import (
    id_set,
    isp_like_graph,
    path_graph,
    random_graph_suite,
    slow_components,
    slow_edge_boundary,
    slow_reattach_boundary,
    slow_volume,
)


def test_embed_p3_structure():
    g = path_graph(3)
    e = embed(build_normalized_laplacian(g))
    # trivial eigenvector is proportional to sqrt(degree)
    expected = np.sqrt(g.degree.astype(float))
    expected /= np.linalg.norm(expected)
    assert np.allclose(e.coords[:, 0], expected, atol=1e-10)
    # second eigenvector is antisymmetric about the middle node
    assert e.coords[1, 1] == pytest.approx(0.0, abs=1e-10)
    assert e.coords[0, 1] == pytest.approx(-e.coords[2, 1], abs=1e-10)
    assert e.coords[0, 1] > 0  # sign convention: first nonzero component positive


def test_embed_columns_orthonormal():
    for g in (path_graph(8), ds.gen_whisker(6, 3, 2), ds.gen_grid(5, 4)):
        e = embed(build_normalized_laplacian(g))
        gram = e.coords.T @ e.coords
        assert np.abs(gram - np.eye(2)).max() <= 1e-8


def test_embed_dimension_guard():
    star = ds.build_graph([("h", "a"), ("h", "b"), ("h", "c")])
    b = ds.resolve_boundary(star, "leaves")
    with pytest.raises(DataError, match="dimension"):
        embed(build_dirichlet_laplacian(star, b))


def test_embed_empty_boundary_covers_all_nodes(two_triangle):
    b = ds.resolve_boundary(two_triangle, "degree-one")
    e = embed(build_dirichlet_laplacian(two_triangle, b))
    assert list(e.node_ids) == list(range(6))


def _synthetic_embedding(points):
    pts = np.asarray(points, dtype=float)
    return Embedding(np.arange(len(pts)), pts)


def test_two_means_separated_clusters():
    pts = [(0.0, 1.0 + 0.001 * i) for i in range(10)]
    pts += [(0.0, -1.0 - 0.001 * i) for i in range(10)]
    e = _synthetic_embedding(pts)
    centers, assign = two_means(e)
    assert set(assign[:10]) == {1} and set(assign[10:]) == {0}
    c2, a2 = two_means(e)
    assert np.array_equal(assign, a2) and np.allclose(centers, c2)


def test_two_means_degenerate():
    e = _synthetic_embedding([(1.0, 2.0)] * 5)
    with pytest.raises(NumericalError, match="degenerate embedding"):
        two_means(e)


def test_two_means_two_triangles(two_triangle):
    e = embed(build_normalized_laplacian(two_triangle))
    _, assign = two_means(e)
    assert list(assign[:3]) == [assign[0]] * 3
    assert list(assign[3:]) == [1 - assign[0]] * 3


def test_rank_nodes_two_triangles_prefix(two_triangle):
    e = embed(build_normalized_laplacian(two_triangle))
    centers, assign = two_means(e)
    order = rank_nodes(two_triangle, e, centers, assign)
    assert set(int(v) for v in order[:3]) == {0, 1, 2}
    cut3 = frozenset(int(v) for v in order[:3])
    assert ds.cheeger_ratio(two_triangle, cut3) == 1 / 7
    assert ds.components(two_triangle, cut3) == 1


def test_rank_nodes_separated_clusters_ordering():
    pts = [(0.0, -1.0), (0.0, -0.9), (0.0, 1.0), (0.0, 0.9)]
    e = _synthetic_embedding(pts)
    g = ds.build_graph([("0", "1"), ("1", "2"), ("2", "3")])
    centers, assign = two_means(e)
    order = list(int(v) for v in rank_nodes(g, e, centers, assign))
    # cluster A (volume tie broken by node 0's side) precedes cluster B entirely
    assert set(order[:2]) == {0, 1}
    assert set(order[2:]) == {2, 3}


def test_reattach_boundary_rules():
    w = ds.gen_whisker(4, 2, 2)  # tips are ids 5 and 7
    b = ds.resolve_boundary(w, "degree-one")
    assert id_set(b) == {5, 7}
    assert id_set(reattach_boundary(w, b, {4})) == {4, 5}  # tip follows its path neighbor
    assert id_set(reattach_boundary(w, b, {0, 1})) == {0, 1}  # tip's neighbor outside: stays
    with pytest.raises(DataError):
        reattach_boundary(w, b, {5})

    # exact tie stays outside: boundary node with one interior neighbor in, one out
    g = ds.build_graph([("b", "u"), ("b", "v"), ("u", "v"), ("u", "w"), ("v", "w")])
    assert id_set(reattach_boundary(g, [0], {1})) == {1}
    assert id_set(reattach_boundary(g, [0], {1, 2})) == {0, 1, 2}


def test_sweep_identical_rankings_all_tied(two_triangle):
    b = ds.resolve_boundary(two_triangle, "degree-one")  # empty boundary
    report = sweep(two_triangle, b)
    assert report.cat_le_le == len(report.rows)
    assert report.cat_le_gt == report.cat_gt_le == report.cat_gt_gt == 0
    assert report.avg_dc == 0.0
    assert report.avg_dh == 0.0
    ks = [r.k for r in report.rows]
    assert ks == [1, 2, 3, 4, 5]
    three = next(r for r in report.rows if r.k == 3)
    assert three.h_d == three.h_t == 1 / 7
    assert three.c_d == three.c_t == 1


def test_sweep_rejects_disconnected_graph():
    # two triangles, each with a pendant node, and no edge between them: 0 is
    # a double eigenvalue, so the traditional embedding has no unique basis
    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "p")]
    edges += [("x", "y"), ("y", "z"), ("z", "x"), ("x", "q")]
    g = ds.build_graph(edges)
    b = ds.resolve_boundary(g, "degree-one")
    assert ds.interior(g, b).size == 6
    with pytest.raises(DataError, match="sweep requires a connected graph"):
        sweep(g, b)
    half = ds.largest_component(g)
    assert half.node_count == 4
    assert sweep(half, ds.resolve_boundary(half, "degree-one")).rows


def _slow_cheeger_ratio(g, cut):
    vol = slow_volume(g, cut)
    return slow_edge_boundary(g, cut) / min(vol, 2 * g.edge_count - vol)


def _traditional_ranking(g):
    e = embed(build_normalized_laplacian(g))
    centers, assign = two_means(e)
    return rank_nodes(g, e, centers, assign)


def _sweep_cases():
    """(graph, boundary policy) pairs: a whisker, a grid, seeded random graphs."""
    cases = [(ds.gen_whisker(12, 5, 3), "degree-one"), (ds.gen_grid(7, 9), "grid-perimeter")]
    for g in random_graph_suite(6, (9, 14), seed_base=2100):
        cases.append((g, "degree-one"))
        if np.count_nonzero(g.degree >= 4) >= 2:  # the interior grid-perimeter leaves
            cases.append((g, "grid-perimeter"))
    return cases


def test_sweep_rows_internally_consistent():
    for g, policy in _sweep_cases():
        b = ds.resolve_boundary(g, policy)
        full = sweep(g, b)
        # one row per interior prefix, sizes strictly growing inside [1, n-1]:
        # no size can repeat or cover none or all of the graph
        ks = [r.k for r in full.rows]
        assert len(ks) == ds.interior(g, b).size - 1
        assert all(a < c for a, c in zip(ks, ks[1:]))
        assert 1 <= ks[0] and ks[-1] <= g.node_count - 1
        some = sweep(g, b, sizes=[r.k for r in full.rows[::2]])
        assert some.rows == full.rows[::2]
        assert len(some.dirichlet_cuts) == len(full.dirichlet_cuts[::2])
        for a, c in zip(some.dirichlet_cuts, full.dirichlet_cuts[::2]):
            assert np.array_equal(a, c)
        order_t = _traditional_ranking(g)
        for report in (full, some):
            # the traditional ranking of every node, read-only
            assert np.array_equal(report.traditional_order, order_t)
            assert report.traditional_order.dtype == np.int64
            assert not report.traditional_order.flags.writeable
            assert sorted(report.traditional_order.tolist()) == list(range(g.node_count))
            # category counts partition the rows, averages recompute exactly
            assert (
                report.cat_le_le + report.cat_le_gt + report.cat_gt_le + report.cat_gt_gt
                == len(report.rows)
            )
            assert report.avg_dc == pytest.approx(
                sum(r.c_d - r.c_t for r in report.rows) / len(report.rows), abs=1e-15
            )
            assert report.avg_ht == pytest.approx(
                sum(r.h_t for r in report.rows) / len(report.rows), abs=1e-15
            )
            # both cuts of every row reproduce h and c through independent
            # routes: the recorded Dirichlet cut, and the k-prefix of the
            # traditional ranking
            for row, cut in zip(report.rows, report.dirichlet_cuts):
                # distinct ids, and a view of the one insertion order the
                # last (largest) cut spans
                assert len(cut) == len(set(cut.tolist())) == row.k
                assert np.shares_memory(cut, report.dirichlet_cuts[-1])
                assert row.h_d == _slow_cheeger_ratio(g, cut)
                assert row.c_d == slow_components(g, cut)
                prefix = [int(v) for v in order_t[: row.k]]
                assert row.h_t == _slow_cheeger_ratio(g, prefix)
                assert row.c_t == slow_components(g, prefix)


def test_reattach_boundary_matches_slow_majority():
    cases = [
        (ds.gen_whisker(10, 4, 3), "degree-one"),
        (ds.gen_whisker(6, 9, 1), "degree-one"),
        (ds.gen_grid(6, 7), "grid-perimeter"),
        *((g, "grid-perimeter") for g in random_graph_suite(8, (9, 14), seed_base=2100)),
    ]
    ties = 0
    for g, policy in cases:
        b = ds.resolve_boundary(g, policy)
        interior = ds.interior(g, b)
        rng = np.random.default_rng(g.node_count)
        for order in (interior, rng.permutation(interior)):
            for j in range(interior.size + 1):
                prefix = order[:j]
                expected = slow_reattach_boundary(g, b, prefix)
                assert id_set(reattach_boundary(g, b, prefix)) == expected
                inside = set(int(v) for v in prefix)
                for v in b:
                    nbrs = [int(u) for u in g.neighbors(v) if int(u) not in b]
                    if nbrs and 2 * sum(u in inside for u in nbrs) == len(nbrs):
                        ties += 1
    assert ties > 0  # the tie rule was exercised, not only clear majorities


def test_reattach_boundary_one_spec_on_two_graphs():
    # a boundary used on another graph with the same ids must select
    # that graph's boundary-interior edges, not the first graph's
    g1, g2 = path_graph(6), ds.gen_grid(2, 3)
    b = [0, 5]
    for prefix in ([1], [2, 3], [1, 2, 3, 4], [4], [1], [3, 4]):
        for g in (g1, g2, g1):
            expected = slow_reattach_boundary(g, b, prefix)
            assert id_set(reattach_boundary(g, b, prefix)) == expected


def test_sweep_and_reattach_leave_the_boundary_spec_unchanged():
    # the boundary is the caller's read-only id array: neither call writes into it
    g = ds.gen_whisker(12, 5, 3)
    b = ds.resolve_boundary(g, "degree-one")
    before = b.copy()
    reattach_boundary(g, b, ds.interior(g, b)[:4])
    assert np.array_equal(b, before) and not b.flags.writeable
    sweep(g, b)
    assert np.array_equal(b, before) and not b.flags.writeable


def test_sweep_reads_its_boundary_once():
    # an iterator is read once; a later read would see no boundary at all
    g = ds.gen_whisker(12, 5, 3)
    b = ds.resolve_boundary(g, "degree-one")
    given, expected = sweep(g, iter(b.tolist())), sweep(g, b)
    assert given.rows == expected.rows
    assert all(map(np.array_equal, given.dirichlet_cuts, expected.dirichlet_cuts))


def test_reattached_and_reported_cuts_are_read_only():
    # the report's cuts share one array: writing to one would change the others
    g = ds.gen_whisker(12, 5, 3)
    b = ds.resolve_boundary(g, "degree-one")
    for cut in (reattach_boundary(g, b, ds.interior(g, b)[:4]), *sweep(g, b).dirichlet_cuts):
        assert cut.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            cut[0] = 0


@pytest.mark.parametrize("bad", [-1, 29, np.array([0, -2]), np.array([3, 29])], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda g, b, s: ds.volume(g, s),
        lambda g, b, s: ds.edge_boundary(g, s),
        lambda g, b, s: ds.components(g, s),
        lambda g, b, s: ds.cheeger_ratio(g, s),
        lambda g, b, s: evaluate_cut(g, s, "traditional"),
        lambda g, b, s: reattach_boundary(g, b, s),
    ],
    ids=["volume", "edge_boundary", "components", "cheeger_ratio", "evaluate_cut", "reattach"],
)
def test_out_of_range_ids_raise(call, bad):
    g = ds.gen_whisker(5, 4, 6)  # ids 0..28
    assert g.node_count == 29
    b = ds.resolve_boundary(g, "degree-one")
    nodes = bad if isinstance(bad, np.ndarray) else [0, bad]
    # a mask indexed by -1 would silently mark the last node instead
    with pytest.raises(DataError, match="out of range"):
        call(g, b, nodes)


@pytest.mark.parametrize(
    "call",
    [
        lambda g, b, s: ds.volume(g, s),
        lambda g, b, s: ds.edge_boundary(g, s),
        lambda g, b, s: ds.components(g, s),
        lambda g, b, s: ds.induced_subgraph(g, s),
        lambda g, b, s: evaluate_cut(g, s, "traditional"),
        lambda g, b, s: reattach_boundary(g, b, s),
        lambda g, b, s: ds.local_cheeger_ratio(g, b, s),
    ],
    ids=[
        "volume",
        "edge_boundary",
        "components",
        "induced_subgraph",
        "evaluate_cut",
        "reattach",
        "local_cheeger_ratio",
    ],
)
def test_boolean_mask_as_node_set_raises(call):
    g = ds.gen_grid(4, 4)
    b = ds.resolve_boundary(g, "grid-perimeter")
    inner = np.array([5, 6, 9, 10])
    assert set(ds.interior(g, b).tolist()) == set(inner.tolist())
    call(g, b, inner)  # the same set as ids is accepted
    mask = np.zeros(g.node_count, dtype=bool)
    mask[inner] = True
    # read as ids, the mask would be the set {0, 1}: no error, a wrong answer
    with pytest.raises(DataError, match="boolean"):
        call(g, b, mask)


def test_sweep_report_memory_is_linear():
    """A second sweep (graph caches already built) allocates and keeps
    little: the report holds one insertion order, each row's Dirichlet cut a
    view of its prefix, not one set per row."""
    import tracemalloc

    g = ds.gen_random_connected(600, 0.012, 3)
    b = ds.resolve_boundary(g, "degree-one")
    first = sweep(g, b)
    tracemalloc.start()
    try:
        report = sweep(g, b)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.rows == first.rows
    assert len(report.rows) > 400
    assert peak < 3 * 2**20
    assert held < 2**20


def test_sweep_evaluate_cut_calls_pin_capture_contract(monkeypatch):
    """The benchmark's sweep check (perfbench/worker.py::sweep_capture) takes
    the traditional cuts by wrapping clustering.evaluate_cut, so sweep must
    call it once per reported row and method, the traditional cut being a
    prefix view of one ranking (the capture keeps these without copying)."""
    g = ds.gen_whisker(12, 5, 3)
    b = ds.resolve_boundary(g, "degree-one")
    for sizes in (None, [r.k for r in sweep(g, b).rows[1::3]]):
        calls = []

        def recorder(graph, nodes, method):
            calls.append((method, nodes))
            return evaluate_cut(graph, nodes, method)

        monkeypatch.setattr("dirspec.clustering.evaluate_cut", recorder)
        report = sweep(g, b, sizes=sizes)
        monkeypatch.undo()
        assert [m for m, _ in calls] == ["dirichlet", "traditional"] * len(report.rows)
        dirichlet, traditional = calls[::2], calls[1::2]
        assert len(dirichlet) == len(report.dirichlet_cuts)
        for (_, nodes), cut in zip(dirichlet, report.dirichlet_cuts):
            assert frozenset(nodes) == frozenset(cut.tolist())
        prev: set[int] = set()
        for row, (_, nodes) in zip(report.rows, traditional):
            assert isinstance(nodes, np.ndarray) and nodes.base is not None
            assert np.shares_memory(nodes, traditional[0][1])
            members = set(int(v) for v in nodes)
            assert len(nodes) == len(members) == row.k
            assert prev <= members
            prev = members


def test_evaluate_cut_scores_through_public_primitives(monkeypatch):
    """The benchmark's layer trace (perfbench/layers.py) times cut scoring by
    wrapping public functions where each module binds them, so evaluate_cut
    must reach cheeger_ratio and components through clustering's imports,
    and cheeger_ratio must reach volume and edge_boundary through cheeger's."""
    g = ds.gen_whisker(6, 4, 2)
    calls = []

    def spy(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls.append((name, args[1]))
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    clustering = importlib.import_module("dirspec.clustering")
    cheeger = importlib.import_module("dirspec.cheeger")
    spy(clustering, "cheeger_ratio")
    spy(clustering, "components")
    spy(cheeger, "volume")
    spy(cheeger, "edge_boundary")
    rec = evaluate_cut(g, np.array([3, 1, 2, 3]), "traditional")
    names = ["cheeger_ratio", "volume", "edge_boundary", "components"]
    assert [name for name, _ in calls] == names
    # every primitive scores the ascending member ids, the duplicate once
    assert all(id_set(ids) == {1, 2, 3} for _, ids in calls)
    members = {1, 2, 3}
    assert rec == CutRecord(h=_slow_cheeger_ratio(g, members), c=slow_components(g, members))


def test_sweep_cut_sizes_nondecreasing_and_nested():
    g = ds.gen_whisker(10, 4, 3)
    b = ds.resolve_boundary(g, "degree-one")
    m = build_dirichlet_laplacian(g, b)
    e = embed(m)
    centers, assign = two_means(e)
    order = rank_nodes(g, e, centers, assign)
    prev: set[int] = set()
    for j in range(1, len(order)):
        cut = id_set(reattach_boundary(g, b, order[:j]))
        assert prev <= cut
        prev = cut


@pytest.mark.parametrize("seed", range(1, 13))
def test_sweep_rows_match_separately_assembled_operators(seed):
    # the sweep solves one Laplacian's interior block in the traditional
    # order; its own assembly and order give the same rows.  Nodes that an
    # automorphism swaps may trade places in a cut, so members are not compared
    g = isp_like_graph(400, seed=seed)
    b = ds.resolve_boundary(g, "degree-one")
    e = embed(build_dirichlet_laplacian(g, b))
    centers, assign = two_means(e)
    order_d = rank_nodes(g, e, centers, assign)
    order_t = _traditional_ranking(g)
    rows = []
    for j in range(1, len(order_d)):
        cut = reattach_boundary(g, b, order_d[:j])
        d_rec = evaluate_cut(g, cut, "dirichlet")
        t_rec = evaluate_cut(g, order_t[: cut.size], "traditional")
        rows.append((cut.size, d_rec.h, d_rec.c, t_rec.h, t_rec.c))
    assert size_rows(sweep(g, b)) == rows


def test_sweep_size_filter():
    g = ds.gen_whisker(10, 3, 2)
    b = ds.resolve_boundary(g, "degree-one")
    full = sweep(g, b)
    some = sweep(g, b, sizes=[r.k for r in full.rows[:2]])
    assert [r.k for r in some.rows] == [r.k for r in full.rows[:2]]
    with pytest.raises(DataError, match="no cuts"):
        sweep(g, b, sizes=[10**6])


def test_aggregate_row_matches_size_rows(two_triangle):
    b = ds.resolve_boundary(two_triangle, "degree-one")
    report = sweep(two_triangle, b)
    assert all(r.h_d == r.h_t and r.c_d == r.c_t for r in report.rows)
    agg = aggregate_row(report)
    assert agg[0] == len(report.rows)
    # aggregate recomputes from the per-size rows exactly
    rows = size_rows(report)
    assert agg[4] == sum(r[2] - r[4] for r in rows) / len(rows)
    assert agg[5] == sum(r[1] - r[3] for r in rows) / len(rows)


def test_sweep_requires_interior():
    p3 = path_graph(3)
    with pytest.raises(DataError, match="two interior"):
        sweep(p3, [0, 2])


def test_evaluate_cut_record(two_triangle):
    rec = evaluate_cut(two_triangle, {0, 1, 2}, "dirichlet")
    assert rec.h == 1 / 7
    assert rec.c == 1
    # the record keeps the score only: the same for duplicate ids, either
    # order and either method
    assert rec == evaluate_cut(two_triangle, np.array([2, 0, 1, 0]), "traditional")
    assert set(vars(rec)) == {"h", "c"}
