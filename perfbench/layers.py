"""Layer spans recorded from outside the program, and their per-layer totals.

``Tracer.install`` wraps every public function of the package's modules and
installs the wrapper at every module that binds the function, because
``cli``, ``clustering``, ``cheeger`` and ``spectral`` import names with
``from .x import ...``: patching only the defining module would miss their
calls.  Modules are reached through ``importlib.import_module``, since the
package attribute ``dirspec.tree_spectrum`` is the re-exported function, not
the module.

Spans are kept in memory as (name, start, end, parent, error, info) and
written once the traced call ends; ``uninstall`` restores the originals so
that untraced calls in the same process run the program unchanged.
``layer_stats`` turns spans into calls, self time (duration minus the part
that child spans cover) and errors per function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

PACKAGE = "dirspec"
MODULES = ("ingest", "graph", "spectral", "tree_spectrum", "cheeger", "clustering", "cli")


def _info(name: str, args: tuple):
    """Per-call work counts for the functions whose size the layer metrics need."""
    if name == "spectral.smallest_eigenpairs":
        a = args[0].matrix
        return [int(a.shape[0]), int(a.nnz)]
    if name == "graph.components":
        return len(args[1])
    return None


class Tracer:
    """Spans of the package's public functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._replaced: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, _info(name, args)]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if name == "clustering.sweep":
                span[5] = len(result.rows)
            return result

        return wrapper

    def install(self) -> None:
        """Replace each public function by its wrapper at every binding site."""
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        package = importlib.import_module(PACKAGE)
        for mod in (package, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._replaced.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        """Put every original function back where install found it."""
        for mod, attr, original in self._replaced:
            setattr(mod, attr, original)
        self._replaced.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f)


def layer_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per function: calls, self_s, errors, plus the work counts of ``_info``."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _err, _info in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _parent, err, info) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0})
        s["calls"] += 1
        s["self_s"] += (end - start) - covered[i]
        s["errors"] += err
        if name == "spectral.smallest_eigenpairs":
            n, nnz = info
            s["n_sum"] = s.get("n_sum", 0) + n
            s["n_max"] = max(s.get("n_max", 0), n)
            s["nnz_sum"] = s.get("nnz_sum", 0) + nnz
        elif name == "graph.components":
            s["nodes_sum"] = s.get("nodes_sum", 0) + info
        elif name == "clustering.sweep" and info is not None:
            s["rows"] = s.get("rows", 0) + info
    return stats
