"""The program touches the cyclic collector in one place only.

A build pauses the collector and freezes the world it made (DESIGN.md
§12); that is a process-wide change, so the rule is that every ``gc``
reference under ``src/repro`` sits inside the one helper that
``VideoNetworkService.build`` enters, and the module that holds it is
the only one importing ``gc``.  The scan parses the package with
:mod:`ast`: an ``import gc`` (under any alias), a ``from gc import``, an
``importlib.import_module("gc")`` / ``__import__("gc")``, and every name
bound to the module are reported with where they stand.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The one place the program may touch ``gc``: (module, function).
HELPER = ("vns.service", "_collector_paused_for_build")


def _callee(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _gc_names(tree: ast.Module) -> tuple[set[str], list[str]]:
    """The names a file binds to ``gc``, and the ways it imports it that
    no name can stand for."""
    names: set[str] = set()
    other: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name for a in node.names if a.name == "gc")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            other.append(f"from gc import (line {node.lineno})")
        elif (
            isinstance(node, ast.Call)
            and _callee(node.func) in ("import_module", "__import__")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "gc"
        ):
            other.append(f"import of 'gc' by call (line {node.lineno})")
    return names, other


def gc_references_in(package: dict[str, str]) -> tuple[list[str], int]:
    """``module: what (line n)`` for each ``gc`` reference outside the
    helper, sorted; and how many references sit inside it."""
    stray: list[str] = []
    inside = 0
    for module, source in package.items():
        tree = ast.parse(source)
        names, other = _gc_names(tree)
        stray += [f"{module}: {what}" for what in other]
        if names and module != HELPER[0]:
            stray.append(f"{module}: imports gc")
        helper = next(
            (
                node
                for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == HELPER[1]
            ),
            None,
        )
        allowed = {id(node) for node in ast.walk(helper)} if module == HELPER[0] and helper else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in names:
                if id(node) in allowed:
                    inside += 1
                else:
                    stray.append(f"{module}: {node.id} (line {node.lineno})")
    return sorted(stray), inside


def _package() -> dict[str, str]:
    return {
        ".".join(path.relative_to(PACKAGE).with_suffix("").parts): path.read_text()
        for path in sorted(PACKAGE.rglob("*.py"))
        if "__pycache__" not in path.parts
    }


def test_every_gc_reference_is_inside_the_build_helper():
    stray, inside = gc_references_in(_package())
    assert not stray, (
        f"gc is touched outside {HELPER[0]}:{HELPER[1]} (the build's collector "
        "pause and freeze, DESIGN.md §12):\n  " + "\n  ".join(stray)
    )
    assert inside > 0, "the helper no longer references gc: is the scan still looking at it?"


class TestScanner:
    """The scan on planted sources."""

    HELPER_SOURCE = (
        "import gc\n"
        "def _collector_paused_for_build():\n"
        "    gc.disable()\n"
        "    yield\n"
        "    gc.enable()\n"
    )

    def test_the_helper_alone_passes(self):
        assert gc_references_in({"vns.service": self.HELPER_SOURCE}) == ([], 2)

    def test_a_call_outside_the_helper_is_flagged(self):
        source = self.HELPER_SOURCE + "def build():\n    gc.collect()\n"
        assert gc_references_in({"vns.service": source}) == (["vns.service: gc (line 7)"], 2)

    def test_any_other_module_is_flagged(self):
        package = {
            "vns.service": self.HELPER_SOURCE,
            "a": "import gc as collector\ndef run():\n    collector.freeze()\n",
            "b": "from gc import freeze\n",
            "c": "import importlib\ncollector = importlib.import_module('gc')\n",
        }
        assert gc_references_in(package) == (
            [
                "a: collector (line 3)",
                "a: imports gc",
                "b: from gc import (line 1)",
                "c: import of 'gc' by call (line 2)",
            ],
            2,
        )
