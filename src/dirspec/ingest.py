"""Edge-list parsing, synthetic graph generators, and deterministic file writers.

Edge-list format: UTF-8 text, one edge per line as two whitespace-separated
labels; blank lines, lines starting with '#' and a leading byte-order mark
are ignored.  CSV output uses ',' separators, '.' decimal points, LF line
endings, and floats printed with 6 significant digits.
"""

from __future__ import annotations

import io
import os
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError
from .graph import Graph, _assemble, build_graph, is_connected

SIZE_GUARD = 10_000_000
CSV_ROWS = 4096  # rows formatted at a time: a million rows at once peaked 230 MiB higher


def parse_edge_list(path: str | os.PathLike) -> Graph:
    """Parse a plain edge-list file into a canonical Graph.

    The file is read once as text, so a file that is not UTF-8 is reported
    before any malformed line; ``build_graph`` then takes its edges one line
    at a time, and no list of lines or label pairs is built.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as f:  # drops a leading BOM
            text = f.read()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason})") from e
    return build_graph(_edge_tokens(path, text))


def _edge_tokens(path: str | os.PathLike, text: str) -> Iterator[list[str]]:
    """The two labels of each edge line of ``text``, in file order.

    Lines end where ``readlines()`` ends them: at LF only, since reading in
    text mode turned CR and CRLF into LF; ``str.splitlines`` would also break
    at form feeds and other separators and renumber the lines.
    """
    empty = True
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise DataError(
                f"{path}: line {lineno}: expected two tokens 'u v', got {len(tokens)}"
            )
        empty = False
        yield tokens
    if empty:
        raise DataError(f"{path}: empty edge list")


def tree_node_count(degree: int, depth: int) -> int:
    """Node count of the regular tree produced by :func:`gen_tree`, or SIZE_GUARD + 1
    for any larger tree: level sizes are summed only up to the guard, so a deep
    tree never builds (degree-1)**depth, an integer of unbounded size."""
    if degree == 2:
        return min(1 + 2 * depth, SIZE_GUARD + 1)
    n, level = 1, degree
    for _ in range(depth):
        n += level
        if n > SIZE_GUARD:
            return SIZE_GUARD + 1
        level *= degree - 1
    return n


def _check_size(n: int) -> None:
    if n > SIZE_GUARD:
        raise DataError(f"generator output too large (more than {SIZE_GUARD} nodes)")


def gen_tree(degree: int, depth: int) -> Graph:
    """Regular tree: root has `degree` children, other internal nodes degree-1
    children, so every interior node has full degree; leaves sit at `depth` hops."""
    if degree < 2 or depth < 1:
        raise DataError("gen_tree requires degree >= 2 and depth >= 1")
    n = tree_node_count(degree, depth)
    _check_size(n)
    # ids run level by level; edges come in child order
    child = np.arange(1, n)
    parent = np.where(child <= degree, 0, (child - degree - 1) // (degree - 1) + 1)
    return _assemble(parent, child)


def gen_grid(rows: int, cols: int) -> Graph:
    """4-neighbor lattice with rows*cols nodes; node (r, c) gets label str(r*cols+c)."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise DataError("gen_grid requires rows*cols >= 2")
    _check_size(rows * cols)
    # each node's left edge, then its up edge, so dense ids coincide with labels
    k = np.arange(1, rows * cols)
    ends = np.stack((k - 1, k - cols), axis=1)
    has = np.stack((k % cols > 0, k >= cols), axis=1)
    return _assemble(ends[has], np.repeat(k, has.sum(axis=1)))


def gen_whisker(core_size: int, whisker_count: int, whisker_len: int) -> Graph:
    """Clique core with pendant paths (whiskers) attached round-robin to core nodes."""
    if core_size < 3 or whisker_count < 1 or whisker_len < 1:
        raise DataError(
            "gen_whisker requires core_size >= 3 and whisker parameters >= 1"
        )
    _check_size(core_size + whisker_count * whisker_len)
    # core edges (i, j) by j, then i; whisker w hangs off core node w % core_size
    j, i = np.tril_indices(core_size, -1)
    path = np.arange(core_size, core_size + whisker_count * whisker_len)
    prev = path - 1
    prev[::whisker_len] = np.arange(whisker_count) % core_size
    return _assemble(np.concatenate((i, prev)), np.concatenate((j, path)))


def gen_random_connected(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, p), redrawn until all n nodes appear and the graph connects.

    Each draw takes one uniform per pair u < v, row by row, the same stream
    as one call over the whole upper triangle, without holding it.
    """
    if n < 2 or n > 10_000:
        raise DataError("gen_random_connected requires 2 <= n <= 10000")
    if not 0 < p <= 1:
        raise DataError("gen_random_connected requires 0 < p <= 1")
    if seed < 0:
        raise DataError(f"gen_random_connected requires seed >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        picks = [u + 1 + np.flatnonzero(rng.random(n - 1 - u) < p) for u in range(n - 1)]
        v = np.concatenate(picks)
        if v.size == 0:
            continue
        g = _assemble(np.repeat(np.arange(n - 1), [x.size for x in picks]), v)
        if g.node_count == n and is_connected(g):
            return g
    raise DataError(f"could not draw a connected graph for n={n}, p={p}, seed={seed}")


def write_graph(g: Graph, path: str | os.PathLike) -> None:
    """Write a canonical edge list; parse_edge_list(write_graph(g)) reproduces g exactly.

    Edges are emitted in two blocks.  First comes one introduction edge per
    node, in id order, so labels first appear in dense-id order: a node v whose
    smallest neighbour is larger than v (node 0 always) was first seen beside
    v+1, and the pair (v, v+1) introduces both; any other node is introduced
    by its edge to its smallest neighbour.  Then all remaining edges follow
    in ``edge_arrays`` order.
    """
    n = g.node_count
    ids = np.arange(n)
    least = np.minimum.reduceat(g.indices, g.indptr[:-1])
    paired = least > ids
    if np.any(least[paired] != ids[paired] + 1):
        raise DataError("graph ids are not in canonical first-seen order")
    own = ~np.concatenate(([False], paired[:-1]))  # v+1 of a pair has no edge of its own
    u = np.where(paired, ids, least)[own]
    v = np.where(paired, ids + 1, ids)[own]
    eu, ev = g.edge_arrays
    rest = np.ones(eu.size, dtype=bool)
    rest[np.searchsorted(eu * n + ev, u * n + v)] = False  # the keys ascend
    write_edges(g, np.concatenate((u, eu[rest])), np.concatenate((v, ev[rest])), path)


def write_edges(g: Graph, u: np.ndarray, v: np.ndarray, path: str | os.PathLike) -> None:
    """Write the edges (u[i], v[i]) of g by label, one 'u v' line each, LF, UTF-8."""
    lab = g.labels
    _write_text(path, (f"{lab[a]} {lab[b]}\n" for a, b in zip(u.tolist(), v.tolist())))


def _write_text(path: str | os.PathLike, chunks: Iterable[str]) -> None:
    """Write UTF-8 text chunk by chunk, as given (LF stays LF); an OSError is a DataError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.writelines(chunks)
    except OSError as e:
        raise DataError(f"cannot write {path}: {e}") from e


def _format_cell(value) -> str:
    """One CSV cell: ints by ``str``, floats at 6 significant digits with 0
    for both zeros, None as the empty cell, anything else by ``str``."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return "0" if v == 0.0 else f"{v:.6g}"
    return str(value)


def format_column(values: Sequence) -> list[str]:
    """The CSV cells of one column by ``_format_cell``'s rule.  A column of
    ints, or of floats and None, is formatted by one map over it, not by a
    call per cell; any other column goes cell by cell."""
    kinds = set(map(type, values))
    if all(k is int or issubclass(k, np.integer) for k in kinds):
        return list(map(str, values))
    if not all(k is float or k is type(None) or issubclass(k, np.floating) for k in kinds):
        return list(map(_format_cell, values))
    col = np.array(values, dtype=object)
    cells = np.full(col.size, "", dtype=object)
    present = col != None  # noqa: E711 (elementwise)
    floats = col[present].astype(float) + 0.0  # -0.0 + 0.0 is 0.0, which prints as 0
    cells[present] = list(map("{:.6g}".format, floats.tolist()))
    return cells.tolist()


def write_columns(
    path: str | os.PathLike, header: Sequence[str], columns: Sequence[Sequence]
) -> None:
    """Write a CSV with a single header row and LF line endings from its
    columns, equal-length sequences formatted by ``format_column`` CSV_ROWS
    rows at a time."""

    def lines() -> Iterator[str]:
        yield ",".join(header) + "\n"
        for i in range(0, len(columns[0]) if columns else 0, CSV_ROWS):
            cells = [format_column(c[i : i + CSV_ROWS]) for c in columns]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    _write_text(path, lines())


def write_csv(path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """``write_columns`` from rows, for the commands that produce a few rows."""
    write_columns(path, header, list(zip(*rows)))
