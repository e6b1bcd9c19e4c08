"""Every public definition under ``src/repro`` has a caller outside ``tests/``.

The scan parses the package with :mod:`ast` and lists each public
(non-underscore, non-dunder) function, class, method and property.  A
definition is reached when its name is referenced by program code: a
``Name``, an ``Attribute``, an import alias or a name inside a string
annotation, anywhere in ``src/`` (outside its own definition and the
package ``__init__`` re-exports), ``examples/``, ``benchmarks/`` or
``bench_e2e/``.  Matching is by name, so a method counts as reached when
any attribute of that name is read: the check catches what nothing could
call, not what nothing happens to call.

A definition that only tests reach is dead code unless a test uses it to
check *other* code (an oracle, or a reader of another layer's state):
those live in :data:`KEPT_FOR_TESTS`, each with the test that needs it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("examples", "benchmarks", "bench_e2e")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Public names no program path reaches, kept because a test uses them to
#: check other code: name -> the test that needs it.
KEPT_FOR_TESTS: dict[str, str] = {
    # Oracles and drivers: one-at-a-time or scalar forms of a batch path.
    "process": "tests/bgp/test_reflector.py delivers one message to a speaker (BgpEngine.run batches)",
    "classify": "tests/experiments/test_fig9_fig10.py pins Fig. 10's class boundaries (scalar _class_codes)",
    "events_to_json": "tests/property/test_props_hostile_json.py round-trips fault events through FIELD_RULES",
    "events_from_json": "tests/property/test_props_hostile_json.py feeds damaged JSON to FIELD_RULES",
    "heatmap_from_pairs": "tests/results/test_heatmap.py: the grid heatmap_from_store must equal",
    "ExperimentResult": "tests/experiments/test_result_contract.py: the protocol every run() result meets",
    "with_communities": "tests/bgp/test_attributes.py: the copy-per-step import chain the one-copy import must equal",
    "received": "tests/bgp/test_attributes.py: the copy-per-step import chain the one-copy import must equal",
    # Readers of another layer's state.
    "queue": "tests/faults/test_injector.py reads the messages a fault queued",
    "routes_from": "tests/integration/test_bgp_incremental.py reads Adj-RIBs against a recomputation",
    "mean_error_km": "tests/geo/test_errors.py measures what the GeoIP error models displaced",
    "active_pops": "tests/faults/test_injector.py reads PoP state after a PopDown",
    "link_is_up": "tests/faults/test_injector.py and tests/vns/test_frozen.py read link state",
    "corridors": "tests/steering/test_telemetry.py reads what the probe rounds filled",
    "perf_rows": "tests/results/test_store.py reads back the perf snapshot record_run wrote",
    "ccdf": "tests/experiments/test_fig9_fig10.py reads Fig. 9's per-corridor loss CCDF",
}


def _py_files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _definitions(tree: ast.Module) -> list[ast.AST]:
    """Public module-level functions and classes, and their methods."""
    found: list[ast.AST] = []
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            found.append(node)
        if isinstance(node, ast.ClassDef):
            stack.extend(node.body)
    return found


def _annotation_names(annotation: ast.AST | None) -> list[str]:
    """Names inside the string parts of an annotation."""
    names: list[str] = []
    for node in ast.walk(annotation) if annotation is not None else ():
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.extend(name for name, _ in _references(parsed))
    return names


def _references(tree: ast.AST) -> list[tuple[str, frozenset[int]]]:
    """``(name, ids of the definitions enclosing the reference)`` for every
    name ``tree`` references."""
    refs: list[tuple[str, frozenset[int]]] = []
    stack: list[tuple[ast.AST, frozenset[int]]] = [(tree, frozenset())]
    while stack:
        node, inside = stack.pop()
        names: list[str] = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name.rsplit(".", 1)[-1]]
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            names = _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = _annotation_names(node.returns)
        refs.extend((name, inside) for name in names)
        if isinstance(node, _DEFS):
            inside = inside | {id(node)}
        stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return refs


def _src_references(path: Path, tree: ast.Module) -> list[tuple[str, frozenset[int]]]:
    """A source file's references; a package ``__init__``'s imports are
    re-exports, not callers."""
    if path.name == "__init__.py":
        body = [n for n in tree.body if not isinstance(n, (ast.Import, ast.ImportFrom))]
        tree = ast.Module(body=body, type_ignores=[])
    return _references(tree)


def uncalled_public_names() -> list[str]:
    """``module:name (line n)`` for each public definition nothing outside
    tests references, sorted."""
    reached = {
        name
        for folder in CALLER_DIRS
        for path in _py_files(ROOT / folder)
        for name, _ in _references(_parse(path))
    }
    trees = {path: _parse(path) for path in _py_files(PACKAGE)}
    refs = {path: _src_references(path, tree) for path, tree in trees.items()}
    # name -> the source files referencing it
    files_naming: dict[str, set[Path]] = {}
    for path, file_refs in refs.items():
        for name, _ in file_refs:
            files_naming.setdefault(name, set()).add(path)

    missing: list[str] = []
    for path, tree in trees.items():
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        for definition in _definitions(tree):
            name = definition.name  # type: ignore[attr-defined]
            if name in reached or name in KEPT_FOR_TESTS:
                continue
            if files_naming.get(name, set()) - {path}:
                continue
            # Only this file names it: a reference outside its own body.
            if any(n == name and id(definition) not in inside for n, inside in refs[path]):
                continue
            missing.append(f"{module}:{name} (line {definition.lineno})")
    return sorted(missing)


def test_every_public_name_has_a_caller_outside_tests():
    missing = uncalled_public_names()
    assert not missing, (
        "public definitions nothing outside tests/ references (delete them, "
        "or name the test that needs them in KEPT_FOR_TESTS):\n  "
        + "\n  ".join(missing)
    )


def test_kept_names_are_still_defined():
    defined = {
        definition.name  # type: ignore[attr-defined]
        for path in _py_files(PACKAGE)
        for definition in _definitions(_parse(path))
    }
    assert set(KEPT_FOR_TESTS) <= defined, set(KEPT_FOR_TESTS) - defined
