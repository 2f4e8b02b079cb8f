"""Every name `src/mcheck` defines is used by `src/mcheck` itself.

The test parses each module and collects what it defines: module-level
functions, classes and constants, and each class's methods and fields.
Every one of them must be named somewhere in `src/mcheck` outside its own
definition, or be exported in `mcheck.__all__`.  A name only the tests or
the tools read belongs in `tests/` or `tools/`, not in the package.

A use is an identifier: a name, an attribute or a keyword argument.  An
import is no use.  Dunder names are called by Python itself and are not
checked.  `BENCH_ONLY` lists the names that the benchmark harness reads
and the package does not, each with the line that reads it and the
ROADMAP item that removes it.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import mcheck

SRC = Path(mcheck.__file__).resolve().parent

BENCH_ONLY = {
    "ic3.MicRecord.size_out":
        "bench/worker.py:123 sums it; ROADMAP item 14 replaces mic_records",
}


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, str, int, int]]:
    """(qualified name, name, first line, last line) of each definition."""
    for node in tree.body:
        for name in _bound_names(node):
            yield name, name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                for name in _bound_names(sub):
                    yield ("%s.%s" % (node.name, name), name, sub.lineno,
                           sub.end_lineno)


def _bound_names(node: ast.stmt) -> List[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _uses(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(identifier, line) of each name, attribute and keyword argument."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg, node.lineno


def unused_names(src: Path) -> List[str]:
    """Qualified `module.name` of each definition in the package at `src`
    that nothing outside its own definition names."""
    trees = {p.stem: ast.parse(p.read_text(), str(p))
             for p in sorted(src.glob("*.py"))}
    used: Dict[str, Set[Tuple[str, int]]] = defaultdict(set)
    for module, tree in trees.items():
        for name, line in _uses(tree):
            used[name].add((module, line))
    exported = set(mcheck.__all__)
    out = []
    for module, tree in trees.items():
        for qual, name, first, last in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in exported:
                continue
            if any(m != module or not first <= line <= last
                   for m, line in used[name]):
                continue
            out.append("%s.%s" % (module, qual))
    return out


def test_every_name_in_the_package_is_used_by_the_package():
    unused = set(unused_names(SRC))
    dead = sorted(unused - set(BENCH_ONLY))
    assert not dead, "named nowhere else in src/mcheck: " + ", ".join(dead)
    # an entry whose name the package now uses, or no longer defines, goes
    stale = sorted(set(BENCH_ONLY) - unused)
    assert not stale, "stale BENCH_ONLY entries: " + ", ".join(stale)
