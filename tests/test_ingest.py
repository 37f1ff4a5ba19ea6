from __future__ import annotations

import re

import numpy as np
import pytest

import dirspec as ds
from dirspec import ingest
from dirspec.errors import DataError
from dirspec.graph import Graph
from dirspec.ingest import format_column, tree_node_count

from conftest import (
    path_graph,
    slow_build_graph,
    slow_format_cell,
    slow_grid_pairs,
    slow_random_connected,
    slow_tree_pairs,
    slow_whisker_pairs,
)


def _parse_error(f) -> str:
    with pytest.raises(DataError) as e:
        ds.parse_edge_list(f)
    return str(e.value)


def test_parse_simple_path(tmp_path):
    f = tmp_path / "p3.edges"
    f.write_text("a b\nb c\n")
    g = ds.parse_edge_list(f)
    assert g.labels == ("a", "b", "c")
    assert g.edge_count == 2


def test_parse_comments_and_duplicates(tmp_path):
    f = tmp_path / "k2.edges"
    f.write_text("# comment\n1 2\n2 1\n")
    g = ds.parse_edge_list(f)
    assert g.node_count == 2
    assert g.edge_count == 1
    assert g.cleaning.duplicates == 1


def test_parse_ignores_a_leading_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.edges", tmp_path / "marked.edges"
    plain.write_text("a b\nb c\nc a\n", encoding="utf-8")
    marked.write_text("\ufeffa b\nb c\nc a\n", encoding="utf-8")
    g = ds.parse_edge_list(marked)
    assert g == ds.parse_edge_list(plain)
    assert g.labels == ("a", "b", "c")
    assert g.labeled_edges() == ds.parse_edge_list(plain).labeled_edges()
    # line numbers in parse errors still count the marked first line as 1
    marked.write_text("\ufeffa b c\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 1"):
        ds.parse_edge_list(marked)
    marked.write_text("\ufeffa b\nb c d\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        ds.parse_edge_list(marked)


def test_parse_malformed_line(tmp_path):
    f = tmp_path / "bad.edges"
    f.write_text("a b\na b c\n")
    with pytest.raises(DataError, match="line 2"):
        ds.parse_edge_list(f)
    f.write_text("a b\nb c d", encoding="utf-8")  # the last line has no newline
    assert _parse_error(f) == f"{f}: line 2: expected two tokens 'u v', got 3"


def test_parse_rejects_text_that_is_not_utf8(tmp_path):
    f = tmp_path / "bad.edges"
    f.write_bytes(b"a b\n\xff c\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(f))}: not UTF-8 text"):
        ds.parse_edge_list(f)
    # the whole file is decoded before any line is read
    f.write_bytes(b"a b c\n\xff\n")
    assert _parse_error(f).startswith(f"{f}: not UTF-8 text (")


def test_parse_empty_file(tmp_path):
    f = tmp_path / "empty.edges"
    f.write_text("# nothing\n\n")
    with pytest.raises(DataError, match="empty"):
        ds.parse_edge_list(f)
    f.write_text("# one\n\n  # two\n", encoding="utf-8")
    assert _parse_error(f) == f"{f}: empty edge list"
    f.write_text("a a\n# b\nb b\n", encoding="utf-8")
    assert _parse_error(f) == "empty graph: no edges remain after cleaning"
    with pytest.raises(DataError, match="cannot read"):
        ds.parse_edge_list(tmp_path / "missing.edges")


def test_parse_cr_and_crlf_line_endings(tmp_path):
    f = tmp_path / "lines.edges"
    f.write_text("a b\nb c\nc a\n", encoding="utf-8")
    want = ds.parse_edge_list(f)
    for end in ("\r\n", "\r"):
        f.write_bytes(f"# ring{end}a b{end}b c{end}{end}c a{end}".encode())
        assert ds.parse_edge_list(f) == want
        f.write_bytes(f"a b{end}b c{end}c a d{end}".encode())
        assert _parse_error(f) == f"{f}: line 3: expected two tokens 'u v', got 3"


def test_parse_counts_lines_at_newlines_only(tmp_path):
    # a form feed, a file separator and a line separator split tokens inside
    # a line, as whitespace does, but end no line: str.splitlines would
    f = tmp_path / "separators.edges"
    f.write_text("a b\nb\x0cc\nc\x1cd\nd\u2028a\n", encoding="utf-8")
    g = ds.parse_edge_list(f)
    assert g.labels == ("a", "b", "c", "d")
    assert g.edge_count == 4
    f.write_text("a b\nb\x0cc\nc\x1cd\nd\u2028a\na b c\n", encoding="utf-8")
    assert _parse_error(f) == f"{f}: line 5: expected two tokens 'u v', got 3"


def test_gen_tree_examples():
    star = ds.gen_tree(3, 1)
    assert star.node_count == 4
    assert sorted(star.degree) == [1, 1, 1, 3]

    t = ds.gen_tree(3, 2)
    assert t.node_count == 10
    assert t.edge_count == 9

    assert tree_node_count(3, 10) == 1 + 3 * (2**10 - 1) == 3070
    assert ds.gen_tree(3, 10).node_count == 3070


def test_gen_tree_interior_degrees_and_leaf_count():
    for d, depth in ((3, 4), (4, 3), (5, 2), (2, 5)):
        g = ds.gen_tree(d, depth)
        leaves = int((g.degree == 1).sum())
        interior = g.degree[g.degree > 1]
        assert (interior == d).all()
        assert leaves == d * (d - 1) ** (depth - 1)
        assert g.node_count == tree_node_count(d, depth)


def test_gen_tree_validation():
    with pytest.raises(DataError):
        ds.gen_tree(1, 3)
    with pytest.raises(DataError):
        ds.gen_tree(3, 0)
    with pytest.raises(DataError, match="too large"):
        ds.gen_tree(3, 25)


def test_tree_node_count_stops_at_the_size_guard():
    guard = ds.ingest.SIZE_GUARD
    for d in range(2, 11):
        for depth in range(1, 40):
            closed = 1 + d * ((d - 1) ** depth - 1) // (d - 2) if d > 2 else 1 + 2 * depth
            assert tree_node_count(d, depth) == min(closed, guard + 1), (d, depth)
    assert tree_node_count(2, guard // 2) == guard + 1
    assert tree_node_count(3, 10**9) == tree_node_count(2, 10**9) == guard + 1


def test_gen_grid_examples():
    c4 = ds.gen_grid(2, 2)
    assert c4.node_count == 4
    assert c4.edge_count == 4
    assert (c4.degree == 2).all()

    p5 = ds.gen_grid(1, 5)
    assert p5.labeled_edges() == path_graph(5).labeled_edges()

    g = ds.gen_grid(100, 100)
    assert (g.node_count, g.edge_count) == (10000, 19800)


def test_gen_grid_degree_structure():
    g = ds.gen_grid(7, 5)
    assert set(int(d) for d in g.degree) == {2, 3, 4}
    assert int((g.degree == 2).sum()) == 4
    assert g.edge_count == 7 * 4 + 5 * 6


def test_gen_whisker_examples():
    g = ds.gen_whisker(3, 1, 1)
    assert g.node_count == 4
    assert g.edge_count == 4

    g = ds.gen_whisker(10, 5, 3)
    assert g.node_count == 25
    assert int((g.degree == 1).sum()) == 5

    with pytest.raises(DataError):
        ds.gen_whisker(2, 1, 1)


def test_gen_random_connected_reproducible():
    g1 = ds.gen_random_connected(25, 0.2, seed=3)
    g2 = ds.gen_random_connected(25, 0.2, seed=3)
    assert g1 == g2
    assert g1.node_count == 25
    assert ds.is_connected(g1)
    g3 = ds.gen_random_connected(25, 0.2, seed=4)
    assert g3.labeled_edges() != g1.labeled_edges()
    with pytest.raises(DataError):
        ds.gen_random_connected(1, 0.5)
    with pytest.raises(DataError):
        ds.gen_random_connected(10, 0.0)
    with pytest.raises(DataError, match="seed >= 0, got -1"):
        ds.gen_random_connected(10, 0.5, seed=-1)


def test_generators_match_slow_builder_of_label_pairs():
    for rows in range(1, 13):
        for cols in range(1, 13):
            if rows * cols >= 2:
                assert ds.gen_grid(rows, cols) == slow_build_graph(slow_grid_pairs(rows, cols))
    for degree in range(2, 7):
        for depth in range(1, 5):
            g = ds.gen_tree(degree, depth)
            assert g == slow_build_graph(slow_tree_pairs(degree, depth))
    for args in [(3, 1, 1), (5, 2, 2), (20, 8, 4), (4, 9, 3)]:
        assert ds.gen_whisker(*args) == slow_build_graph(slow_whisker_pairs(*args))


@pytest.mark.parametrize(
    "n, p, seed",
    [(60, 0.08, 3), (25, 0.2, 3), (25, 0.2, 4), *[(8, 0.4, s) for s in range(9000, 9010)]],
)
def test_gen_random_connected_matches_whole_triangle_draw(n, p, seed):
    expected, _ = slow_random_connected(n, p, seed)
    assert ds.gen_random_connected(n, p, seed) == expected


@pytest.mark.parametrize("n, p, seed", [(10, 0.15, 0), (2, 0.05, 1)])
def test_gen_random_connected_redraws_like_whole_triangle_draw(n, p, seed):
    expected, draws = slow_random_connected(n, p, seed)
    assert draws > 1
    assert ds.gen_random_connected(n, p, seed) == expected


def test_write_parse_round_trip(tmp_path):
    cases = [
        ds.gen_tree(3, 3),
        ds.gen_grid(4, 6),
        ds.gen_whisker(5, 3, 2),
        ds.gen_random_connected(20, 0.2, seed=11),
        ds.build_graph([("a", "b"), ("c", "d"), ("b", "d")]),
        ds.build_graph([("hub", "x"), ("hub", "y"), ("hub", "z")]),
    ]
    for i, g in enumerate(cases):
        path = tmp_path / f"g{i}.edges"
        ds.write_graph(g, path)
        back = ds.parse_edge_list(path)
        assert back == g  # identical labels, ids, and adjacency


def test_write_graph_deterministic_bytes(tmp_path):
    g = ds.gen_random_connected(15, 0.3, seed=9)
    p1, p2 = tmp_path / "a.edges", tmp_path / "b.edges"
    ds.write_graph(g, p1)
    ds.write_graph(g, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _permuted(g, order):
    """g with id i given to node order[i]: the same labeled graph, its ids reordered."""
    a = g.adjacency_matrix[order][:, order].tocsr()
    a.sort_indices()
    labels = tuple(g.labels[j] for j in order)
    return Graph(labels, a.indptr.astype(np.int64), a.indices.astype(np.int64))


def test_write_graph_round_trips_or_rejects_ids_out_of_first_seen_order(tmp_path):
    rng = np.random.default_rng(19)
    path = tmp_path / "g.edges"
    outcomes = {"written": 0, "rejected": 0}
    for _ in range(300):
        n = int(rng.integers(2, 16))
        stream = rng.integers(0, n, size=(int(rng.integers(1, 3 * n)), 2))
        g = ds.build_graph([(str(a), str(b)) for a, b in stream if a != b] or [("0", "1")])
        ds.write_graph(g, path)
        assert ds.parse_edge_list(path) == g
        h = _permuted(g, rng.permutation(g.node_count))
        try:
            ds.write_graph(h, path)
        except DataError as e:
            assert str(e) == "graph ids are not in canonical first-seen order"
            outcomes["rejected"] += 1
        else:
            assert ds.parse_edge_list(path) == h
            outcomes["written"] += 1
    assert min(outcomes.values()) > 50


def test_write_graph_pairs_a_node_first_seen_beside_the_next(tmp_path):
    path = tmp_path / "g.edges"
    # c and d are first seen together, so the line "c d" introduces both
    ds.write_graph(ds.build_graph([("a", "b"), ("c", "d"), ("b", "d")]), path)
    assert path.read_bytes() == b"a b\nc d\nb d\n"
    # the path a-b-c with ids a=0, c=1, b=2: no edge joins ids 0 and 1, so no
    # first line of an edge list can introduce them in id order
    path_with_ids_acb = _permuted(ds.build_graph([("a", "b"), ("b", "c")]), [0, 2, 1])
    with pytest.raises(DataError, match="not in canonical first-seen order"):
        ds.write_graph(path_with_ids_acb, path)


def test_format_cell():
    assert format_column([None]) == [""]
    assert format_column([3]) == ["3"]
    assert format_column([np.int64(7)]) == ["7"]
    assert format_column([0.5]) == ["0.5"]
    assert format_column([-0.0]) == ["0"]
    assert format_column([0.000503457616]) == ["0.000503458"]
    assert format_column([1 / 3]) == ["0.333333"]
    assert format_column(["x"]) == ["x"]
    assert format_column([1234567, 12]) == ["1234567", "12"]
    assert format_column([1234567, 0.5, None, True]) == ["1234567", "0.5", "", "1"]


def test_format_column_matches_the_cell_rule():
    floats = [0.0, -0.0, 1e-300, 5e-324, float("inf"), -float("inf"), float("nan"),
              1234567.0, -28.912345678, np.float64(0.082923456), np.float64(-0.0),
              np.float32(0.1)]
    rng = np.random.default_rng(3)
    drawn = (rng.standard_normal(300) * 10.0 ** rng.integers(-30, 30, 300)).tolist()
    mixed = [1234567, -0.0, None, 10**20, 2.5e6, np.int64(-4), False, True, np.bool_(True),
             "x", 7, 1 / 3]
    for column in ([*floats, None, *drawn, None], [None] * 5, drawn, list(range(-3, 40)),
                   [np.int64(2**40), 0, np.int32(-5)], [], mixed, mixed[:6], [True, False]):
        assert format_column(column) == [slow_format_cell(v) for v in column]


def test_write_columns_match_row_by_row_cells(tmp_path):
    # a deep tree-converge run's shape: every cell in the first rows, the
    # last column empty in the rest
    n = 2000
    columns = (list(range(1, n + 1)), [1 / (i + 1) for i in range(n)],
               [-i / 7 if i < 515 else None for i in range(n)])
    rows = list(zip(*columns))
    want = "i,x,y\n" + "".join(",".join(map(slow_format_cell, r)) + "\n" for r in rows)
    path = tmp_path / "columns.csv"
    ingest.write_columns(path, ("i", "x", "y"), columns)
    assert path.read_text() == want
    ds.write_csv(tmp_path / "rows.csv", ("i", "x", "y"), iter(rows))
    assert (tmp_path / "rows.csv").read_text() == want
    ds.write_csv(path, ("i",), [])
    assert path.read_bytes() == b"i\n"


def test_write_csv_round_trip_six_significant_digits(tmp_path):
    # aggregate-report style row: four counts then four averages
    row = (49, 197, 0, 6, -28.912345678, 0.050612345, 36.81234567, 0.082923456)
    path = tmp_path / "agg.csv"
    ds.write_csv(path, ("a", "b", "c", "d", "e", "f", "g", "h"), [row])
    lines = path.read_text().splitlines()
    assert len(lines) == 2  # header exactly once
    assert lines[0] == "a,b,c,d,e,f,g,h"
    parsed = [float(x) for x in lines[1].split(",")]
    for orig, back in zip(row, parsed):
        assert back == float(f"{float(orig):.6g}")


def test_write_csv_lf_endings(tmp_path):
    path = tmp_path / "rows.csv"
    ds.write_csv(path, ("x",), [(1,), (2,)])
    data = path.read_bytes()
    assert b"\r" not in data
    assert data == b"x\n1\n2\n"
