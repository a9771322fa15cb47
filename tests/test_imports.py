"""Every import in ``src/``, ``tests/``, ``benchmarks/`` and ``examples/``
is used by the module that makes it.

The repository has no lint step, so an import left behind by a refactor
stays until someone reads for it.  :func:`unused_imports` is a stdlib
``ast`` pass: a name an import binds counts as used when the module reads
it anywhere (a bare name or the root of an attribute chain), lists it in
``__all__``, or names it inside a string annotation — the way an import
under ``if TYPE_CHECKING:`` is usually used.  ``from __future__`` imports
bind nothing and are skipped.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import List, Set

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _bound_names(node: ast.AST):
    """``(name, line)`` for every name an import statement binds."""
    if isinstance(node, ast.ImportFrom):
        if node.module == "__future__":
            return
        for alias in node.names:
            if alias.name != "*":
                yield alias.asname or alias.name, node.lineno
    elif isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.asname or alias.name.partition(".")[0], node.lineno


def _annotation_names(annotation: ast.AST) -> Set[str]:
    """Names read by an annotation, including those inside its strings."""
    names: Set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= _annotation_names(parsed)
    return names


def _exported(tree: ast.Module) -> Set[str]:
    """The string entries of every ``__all__ = [...]`` / ``__all__ += [...]``."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            names |= {
                item.value
                for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            }
    return names


def unused_imports(source: str) -> List[str]:
    """``"line: name"`` for every imported name ``source`` never uses."""
    tree = ast.parse(source)
    used = _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return [
        f"{line}: {name}"
        for node in ast.walk(tree)
        for name, line in _bound_names(node)
        if name not in used
    ]


class TestChecker:
    def check(self, source: str) -> List[str]:
        return unused_imports(textwrap.dedent(source))

    def test_flags_a_name_nothing_reads(self):
        assert self.check(
            """
            import os
            from typing import Dict, List

            def f(x: List[int]) -> int:
                return len(x)
            """
        ) == ["2: os", "3: Dict"]

    def test_a_read_an_attribute_root_and_an_alias_count(self):
        assert self.check(
            """
            import os.path
            import numpy as np
            from json import dumps as encode

            print(os.path.join("a", "b"), np.zeros(1), encode({}))
            """
        ) == []

    def test_future_imports_are_skipped(self):
        assert self.check("from __future__ import annotations\n") == []

    def test_dunder_all_counts_as_a_use(self):
        assert self.check(
            """
            from .sharding import ShardedScoringService
            from .service import Tick

            __all__ = ["ShardedScoringService"]
            __all__ += ["Tick"]
            """
        ) == []

    def test_type_checking_imports_used_in_string_annotations(self):
        source = """
            from typing import TYPE_CHECKING, Optional

            if TYPE_CHECKING:
                from .rebalance import Rebalancer
                from .sharding import ShardedScoringService

            class Service:
                rebalancer: Optional["Rebalancer"] = None

                def bind(self, service: "ShardedScoringService") -> "Optional[Rebalancer]":
                    return None
            """
        assert self.check(source) == []
        assert self.check(source.replace('"ShardedScoringService"', "object")) == [
            "6: ShardedScoringService"
        ]

    def test_a_string_outside_an_annotation_is_not_a_use(self):
        assert self.check(
            """
            from dataclasses import field

            NAME = "field"
            """
        ) == ["2: field"]


def test_every_import_in_src_is_used():
    found = {
        str(path.relative_to(SRC)): unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.rglob("*.py"))
    }
    assert len(found) > 50
    assert {path: names for path, names in found.items() if names} == {}


def test_every_import_in_tests_benchmarks_and_examples_is_used():
    found = {
        str(path.relative_to(ROOT)): unused_imports(path.read_text(encoding="utf-8"))
        for folder in ("tests", "benchmarks", "examples")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    assert len(found) > 50
    assert {path: names for path, names in found.items() if names} == {}
