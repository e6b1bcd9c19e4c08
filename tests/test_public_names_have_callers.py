"""Every public definition and every option under ``src/repro`` has a caller
outside ``tests/``.

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

An *option* is a defaulted parameter of a public function, method or
constructor, or a defaulted field of a public frozen dataclass (a
``ClassVar`` is a constant, not a field).  Mutable dataclasses that
accumulate state (``CampaignStats``, ``PairAccumulator``, ...) are out of
scope: their defaults are starting values, not settings.  The same program
code, matched by callee name, must set each option — by keyword, by
position, through an import or module-level alias
(``intern_segment = LOSS_TABLE.intern``), after a function reference it
hands on (``run_once(benchmark, fig3_precision.run, world,
max_prefixes=400)``), or through ``**kwargs`` that a caller of the
forwarding function set (``super().__init__(**kwargs)``); a ``**mapping``
built from data (``cls(**payload)`` parsing outside JSON) sets every
option.  A value nobody sets is a constant beside its use; an option only
a test sets stays only in :data:`KEPT_OPTIONS`, with the test that needs
the second value.
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
    "from_json": "tests/property/test_props_hostile_json.py feeds damaged spec JSON to the field rules",
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

#: Defaulted options no program path sets, kept because a test needs a
#: second value: ``module:Name(option=)`` -> the test that sets it.
KEPT_OPTIONS: dict[str, str] = {
    "dataplane.columnar:simulate_stream_columns(max_rows_per_pass=)": (
        "tests/dataplane/test_columnar.py: 7-row passes must give the pinned kernel digest"
    ),
    "dataplane.transmit:simulate_stream(slot_s=)": (
        "tests/steering/test_payload_accounting.py: planner = simulator at 2 s slots"
    ),
    "workload.sharded:ShardPlan(n_shards=)": (
        "tests/workload/test_sharded.py: k in-process shards must reduce to the sequential report"
    ),
    "results.__main__:main(argv=)": "tests/results/test_cli.py drives the CLI in-process",
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


# -- keyword options -------------------------------------------------------


class _Passed:
    """What program code passes to each callable, keyed by the callee's name
    (a function or method name, or a class name for its constructor)."""

    def __init__(self) -> None:
        self.keywords: dict[str, set[str]] = {}
        self.positional: dict[str, float] = {}
        #: callees handed a ``**mapping`` built from data (every option set)
        self.everything: set[str] = set()
        #: (caller, callee): keywords set on ``caller`` reach ``callee``
        #: through ``**kwargs``; a constructor inherited reaches its base
        #: with its positional arguments too
        self.keyword_forwards: set[tuple[str, str]] = set()
        self.inherits: set[tuple[str, str]] = set()
        #: ``alias = obj.name`` / ``import name as alias``
        self.aliases: dict[str, str] = {}

    def add(self, callee: str, n_positional: float, keywords: list[str]) -> None:
        callee = self.aliases.get(callee, callee)
        self.keywords.setdefault(callee, set()).update(keywords)
        self.positional[callee] = max(self.positional.get(callee, 0), n_positional)

    def resolve(self) -> None:
        """Carry what reaches a caller on to what it forwards to."""
        changed = True
        while changed:
            changed = False
            for source, target, positional in (
                *((s, t, False) for s, t in self.keyword_forwards),
                *((s, t, True) for s, t in self.inherits),
            ):
                before = (
                    len(self.keywords.get(target, ())),
                    self.positional.get(target, 0),
                    target in self.everything,
                )
                self.keywords.setdefault(target, set()).update(self.keywords.get(source, ()))
                if positional:
                    self.positional[target] = max(
                        self.positional.get(target, 0), self.positional.get(source, 0)
                    )
                if source in self.everything:
                    self.everything.add(target)
                after = (
                    len(self.keywords[target]),
                    self.positional.get(target, 0),
                    target in self.everything,
                )
                changed |= before != after


def _name_of(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _owner_key(function: ast.FunctionDef, owner: ast.ClassDef | None) -> str:
    """The name a caller of ``function`` calls it by."""
    if function.name == "__init__" and owner is not None:
        return owner.name
    return function.name


class _CallScan(ast.NodeVisitor):
    """Records every call's arguments into a :class:`_Passed`."""

    def __init__(self, passed: _Passed) -> None:
        self.passed = passed
        self.scopes: list[tuple[ast.FunctionDef, ast.ClassDef | None]] = []
        self.classes: list[ast.ClassDef] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scopes.append((node, self.classes[-1] if self.classes else None))
        saved, self.classes = self.classes, []
        self.generic_visit(node)
        self.classes = saved
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _callees(self, func: ast.AST) -> list[str]:
        function, owner = self.scopes[-1] if self.scopes else (None, None)
        if isinstance(func, ast.Name) and func.id == "cls" and owner is not None:
            return [owner.name]  # ``cls(**kwargs)`` builds the owner
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and _name_of(func.value.func) == "super"
            and owner is not None
        ):
            return [name for base in owner.bases if (name := _name_of(base))]
        name = _name_of(func)
        return [name] if name is not None else []

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        function, owner = self.scopes[-1] if self.scopes else (None, None)
        own_kwarg = function.args.kwarg.arg if function and function.args.kwarg else None
        own_vararg = function.args.vararg.arg if function and function.args.vararg else None
        keywords = [k.arg for k in node.keywords if k.arg is not None]
        n_positional: float = 0
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                if _name_of(arg.value) != own_vararg:
                    n_positional = float("inf")
                break
            n_positional += 1
        for callee in self._callees(node.func):
            callee = self.passed.aliases.get(callee, callee)
            self.passed.add(callee, n_positional, keywords)
            for mapping in (k.value for k in node.keywords if k.arg is None):
                if isinstance(mapping, ast.Name) and mapping.id == own_kwarg and function:
                    self.passed.keyword_forwards.add((_owner_key(function, owner), callee))
                else:
                    self.passed.everything.add(callee)
        # ``run_once(benchmark, fig3_precision.run, world, max_prefixes=400)``:
        # what follows a function reference is passed to that function.
        for index, arg in enumerate(node.args):
            referenced = _name_of(arg)
            if referenced is not None:
                self.passed.add(referenced, max(n_positional - index - 1, 0), keywords)


def _decorator_is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call) and _name_of(decorator.func) == "dataclass":
            return any(
                k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value
                for k in decorator.keywords
            )
    return False


def _is_classvar(annotation: ast.AST) -> bool:
    text = ast.unparse(annotation)
    return text.startswith(("ClassVar", "typing.ClassVar", "'ClassVar", '"ClassVar'))


def _field_options(node: ast.ClassDef) -> list[tuple[str, int, bool]]:
    """``(name, position, has a default)`` for a dataclass's init fields."""
    fields: list[tuple[str, int, bool]] = []
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign) or not isinstance(statement.target, ast.Name):
            continue
        if _is_classvar(statement.annotation):
            continue
        value = statement.value
        if isinstance(value, ast.Call) and _name_of(value.func) == "field":
            given = {k.arg for k in value.keywords}
            if any(
                k.arg == "init" and isinstance(k.value, ast.Constant) and not k.value.value
                for k in value.keywords
            ):
                continue
            has_default = bool(given & {"default", "default_factory"})
        else:
            has_default = value is not None
        fields.append((statement.target.id, len(fields), has_default))
    return fields


def _parameter_options(function: ast.FunctionDef, is_method: bool) -> list[tuple[str, float]]:
    """``(name, position)`` of ``function``'s defaulted parameters; keyword-only
    ones have position infinity."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    static = any(_name_of(d) == "staticmethod" for d in function.decorator_list)
    offset = 1 if is_method and not static else 0
    first_default = len(positional) - len(args.defaults)
    options: list[tuple[str, float]] = [
        (arg.arg, index - offset)
        for index, arg in enumerate(positional)
        if index >= first_default
    ]
    options.extend(
        (arg.arg, float("inf"))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    )
    return options


#: ``(module, qualified name, callee key, option, position, line)``
_Option = tuple[str, str, str, str, float, int]


def _options(module: str, tree: ast.Module, passed: _Passed) -> list[_Option]:
    """Every defaulted parameter of a public function, method or constructor
    and every defaulted field of a public frozen dataclass in ``tree``.
    Registers inherited constructors in ``passed``."""
    found: list[_Option] = []
    stack: list[tuple[ast.stmt, ast.ClassDef | None, str]] = [(n, None, "") for n in tree.body]
    while stack:
        node, owner, prefix = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_"):
                continue
            for option, position in _parameter_options(node, owner is not None):
                found.append((module, prefix + node.name, node.name, option, position, node.lineno))
        elif isinstance(node, ast.ClassDef):
            stack.extend((child, node, f"{prefix}{node.name}.") for child in node.body)
            if node.name.startswith("_"):
                continue
            qualname = prefix + node.name
            init = next(
                (n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"),
                None,
            )
            if _decorator_is_frozen_dataclass(node):
                fields = _field_options(node)
                found.extend(
                    (module, qualname, node.name, name, position, node.lineno)
                    for name, position, has_default in fields
                    if has_default
                )
            elif init is not None:
                found.extend(
                    (module, qualname, node.name, option, position, init.lineno)
                    for option, position in _parameter_options(init, True)
                )
            if init is None:
                for base in node.bases:
                    if (name := _name_of(base)) is not None:
                        passed.inherits.add((node.name, name))
    return found


def unset_options_in(package: dict[str, str], callers: list[str]) -> list[str]:
    """``module:Name(option=) (line n)`` for each option in ``package``
    (module name -> source) that no code in ``package`` or ``callers``
    (sources) sets, sorted."""
    passed = _Passed()
    trees = {module: ast.parse(source) for module, source in package.items()}
    options = [o for module, tree in trees.items() for o in _options(module, tree, passed)]
    everything = [*trees.values(), *map(ast.parse, callers)]
    # Aliases first, so a call written above its alias still counts: import
    # aliases, and module-level ``intern_segment = LOSS_TABLE.intern``.
    for tree in everything:
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.asname:
                passed.aliases[node.asname] = node.name.rsplit(".", 1)[-1]
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, source = node.targets[0], _name_of(node.value)
                if isinstance(target, ast.Name) and source not in (None, target.id):
                    passed.aliases[target.id] = source
    scan = _CallScan(passed)
    for tree in everything:
        scan.visit(tree)
    passed.resolve()
    unset = []
    for module, qualname, key, option, position, line in options:
        label = f"{module}:{qualname}({option}=)"
        if label in KEPT_OPTIONS or key in passed.everything:
            continue
        if option in passed.keywords.get(key, ()) or position < passed.positional.get(key, 0):
            continue
        unset.append(f"{label} (line {line})")
    return sorted(unset)


def unset_options() -> list[str]:
    """:func:`unset_options_in` over ``src/repro`` with the program's callers."""
    package = {
        ".".join(path.relative_to(PACKAGE).with_suffix("").parts): path.read_text()
        for path in _py_files(PACKAGE)
    }
    callers = [path.read_text() for folder in CALLER_DIRS for path in _py_files(ROOT / folder)]
    return unset_options_in(package, callers)


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


def test_every_option_is_set_outside_tests():
    unset = unset_options()
    assert not unset, (
        "defaulted options nothing outside tests/ sets (make each a module "
        "constant beside its use, or name the test that needs a second value "
        "in KEPT_OPTIONS):\n  " + "\n  ".join(unset)
    )


def test_kept_options_are_still_options():
    labels = {
        f"{module}:{qualname}({option}=)"
        for path in _py_files(PACKAGE)
        for module, qualname, _, option, _, _ in _options(
            ".".join(path.relative_to(PACKAGE).with_suffix("").parts), _parse(path), _Passed()
        )
    }
    assert set(KEPT_OPTIONS) <= labels, set(KEPT_OPTIONS) - labels


class TestOptionScanner:
    """The scan on the smallest sources that show each shape it must read."""

    def test_flags_a_default_nobody_passes(self):
        package = {
            "m": (
                "from dataclasses import dataclass\n"
                "from typing import ClassVar\n"
                "def f(x, y=1):\n"
                "    return x + y\n"
                "@dataclass(frozen=True)\n"
                "class Config:\n"
                "    seed: int = 0\n"
                "    slot_s: ClassVar[float] = 5.0\n"
            )
        }
        assert unset_options_in(package, ["f(1)", "Config()"]) == [
            "m:Config(seed=) (line 6)",
            "m:f(y=) (line 3)",
        ]

    def test_keyword_or_position_sets_it(self):
        package = {"m": "def f(x, y=1):\n    return x + y\n"}
        assert unset_options_in(package, ["f(1, y=2)"]) == []
        assert unset_options_in(package, ["f(1, 2)"]) == []

    def test_an_alias_called_positionally(self):
        package = {
            "m": (
                "class Table:\n"
                "    def intern(self, kind, scale=1.0):\n"
                "        return kind\n"
                "TABLE = Table()\n"
                "intern_segment = TABLE.intern\n"
            )
        }
        assert unset_options_in(package, ["intern_segment('a')"]) == [
            "m:Table.intern(scale=) (line 2)"
        ]
        assert unset_options_in(package, ["intern_segment('a', 2.0)"]) == []

    def test_a_function_reference_forwarded_with_keywords(self):
        package = {"m": "def run(world, *, max_prefixes=None):\n    return world\n"}
        caller = "run_once(benchmark, m.run, world, max_prefixes=400)"
        assert unset_options_in(package, [caller]) == []

    def test_cls_built_from_parsed_data(self):
        package = {
            "m": (
                "from dataclasses import dataclass\n"
                "@dataclass(frozen=True)\n"
                "class Spec:\n"
                "    scale: str = 'small'\n"
                "    @classmethod\n"
                "    def from_dict(cls, data):\n"
                "        return cls(**data)\n"
            )
        }
        assert unset_options_in(package, []) == []

    def test_super_init_forwards_what_callers_set(self):
        package = {
            "m": (
                "class Router:\n"
                "    def __init__(self, rid, *, mrai=0.0):\n"
                "        self.rid = rid\n"
                "class Reflector(Router):\n"
                "    def __init__(self, rid, **kwargs):\n"
                "        super().__init__(rid, **kwargs)\n"
            )
        }
        assert unset_options_in(package, ["Reflector('r1', mrai=5.0)"]) == []
        assert unset_options_in(package, ["Reflector('r1')"]) == [
            "m:Router(mrai=) (line 2)"
        ]
