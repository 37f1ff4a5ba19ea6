"""Every public name earns its place.

A name that ``dirspec`` exports is either reached by the program, or
README's section "Oracles kept in the library" gives the reason it stays.
The program is ``src/dirspec`` without ``__init__.py``: each top-level
statement that defines nothing runs on import (the command line's
``main()`` call among them), and a definition runs once a reached
statement or definition other than its own names it, as a bare name or as
an attribute.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import dirspec as ds

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dirspec"
SECTION = "## Oracles kept in the library"


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for stmt in tree.body
        if isinstance(stmt, ast.ImportFrom)
        for alias in stmt.names
    }


def reached_names() -> set[str]:
    units = []  # (name the statement defines or None, names it references)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            name = getattr(stmt, "name", None)  # a def or class statement
            refs = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            refs |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            units.append((name, refs - {name}))
    reached: set[str] = set()
    pending = [refs for name, refs in units if name is None]
    while pending:
        new = pending.pop() - reached
        reached |= new
        pending += [refs for name, refs in units if name in new]
    return reached


def oracle_list() -> list[str]:
    """The names README's oracle section lists, one ``- `name`: reason`` line each."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    _, found, rest = text.partition(f"\n{SECTION}\n")
    return re.findall(r"^- `([\w.]+)`:", rest.split("\n## ", 1)[0], flags=re.M) if found else []


def test_every_exported_name_is_used_or_kept_as_an_oracle():
    unused = exported_names() - reached_names() - set(oracle_list())
    assert not unused, (
        f"exported, unused in src/dirspec and not in README's oracle list: {sorted(unused)}"
    )


def test_every_listed_oracle_exists_and_is_unused():
    listed = oracle_list()
    assert listed, f"README has no {SECTION!r} list"
    reached = reached_names()
    for dotted in listed:
        obj = ds
        for part in dotted.split("."):
            assert hasattr(obj, part), f"{dotted} is listed but does not exist"
            obj = getattr(obj, part)
        assert part not in reached, f"{dotted} is listed as unused, but src/dirspec uses it"
