"""Every public definition and every option under ``src/repro`` has a caller
outside ``tests/``, and every memo there is registered.

The scan parses the package with :mod:`ast` and lists each public
(non-underscore, non-dunder) function, class, method and property.  A
definition is reached when program code references it: a ``Name``, an
``Attribute``, an import or a name inside a string annotation, anywhere
in ``src/`` (outside its own definition and the package ``__init__``
re-exports), ``examples/``, ``benchmarks/`` or ``bench_e2e/``.  A bare
name or an import reaches only the module-level definition it resolves
to; a method or property is reached by attribute (``.name``) alone.

A module-level function or class is reached only through its own module:
the scan resolves each file's imports, ``module.name`` chains and package
re-exports, so ``from repro.experiments import steering;
steering.run(...)`` reaches ``experiments.steering:run`` and no other
``run``, and a function parameter or local named like an import shadows
it.  Everything else — a method, an attribute of an instance, ``cls``,
``super().__init__``, a module-level alias of a method — is matched by
name, so a method counts as reached when any attribute of that name is
read (a local or parameter of that spelling does not count): the check catches what nothing could call, not what nothing happens
to call.

A definition that only tests reach is dead code unless a test uses it to
check *other* code (an oracle, or a reader of another layer's state):
those live in :data:`KEPT_FOR_TESTS`, each with the test that needs it.

An *option* is a defaulted parameter of a public function, method or
constructor, or a defaulted field of a public frozen dataclass (a
``ClassVar`` is a constant, not a field).  Mutable dataclasses that
accumulate state (``CampaignStats``, ``PairAccumulator``, ...) are out of
scope: their defaults are starting values, not settings.  The same program
code, resolved the same way, must set each option — by keyword, by
position, through an import or module-level alias
(``intern_segment = LOSS_TABLE.intern``), after a function reference it
hands on (``run_once(benchmark, fig3_precision.run, world,
max_prefixes=400)``), or through ``**kwargs`` that a caller of the
forwarding function set (``super().__init__(**kwargs)``); a ``**mapping``
built from data (``cls(**payload)`` parsing outside JSON) sets every
option.  A value nobody sets is a constant beside its use; an option only
a test sets stays only in :data:`KEPT_OPTIONS`, with the test that needs
the second value.

A *memo* is a private attribute or a module global bound to an empty
dict (``{}``, ``dict()``, ``field(default_factory=dict)``) and read back
inside a function, or a function under ``functools.lru_cache``.  Each
one the scan finds is named in :data:`MEMOS` with what drops it, or why
what it caches never changes; a dict found the same way that holds state
rather than a memo is listed there as ``"state: ..."``.
"""

from __future__ import annotations

import ast
from collections.abc import Collection
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
    "step": "tests/integration/test_bgp_incremental.py: one message at a time must reach run()'s state",
    "relationship": (
        "tests/property/test_props_routing.py checks propagated paths valley-free "
        "against the AS graph"
    ),
    "at": (
        "tests/measurement/test_stats.py: Ccdf.series() must agree with at(), the "
        "complement of Cdf.at(), at every sample point"
    ),
    # Readers of another layer's state.
    "queue": "tests/faults/test_injector.py reads the messages a fault queued",
    "routes_from": "tests/integration/test_bgp_incremental.py reads Adj-RIBs against a recomputation",
    "mean_error_km": "tests/geo/test_errors.py measures what the GeoIP error models displaced",
    "active_pops": "tests/faults/test_injector.py reads PoP state after a PopDown",
    "link_is_up": "tests/faults/test_injector.py and tests/vns/test_frozen.py read link state",
    "corridors": "tests/steering/test_telemetry.py reads what the probe rounds filled",
    "perf_rows": "tests/results/test_store.py reads back the perf snapshot record_run wrote",
    "counter": "tests/integration/test_bgp_incremental.py reads the decision counts a converge made",
    "ccdf": "tests/experiments/test_fig9_fig10.py reads Fig. 9's per-corridor loss CCDF",
    "router": "tests/faults/test_igp_table.py reads each speaker's IGP metrics through the engine",
}

#: Defaulted options no program path sets, kept because a test needs a
#: second value: ``module:Name(option=)`` -> the test that sets it.
KEPT_OPTIONS: dict[str, str] = {
    "dataplane.columnar:simulate_stream_columns(max_cells_per_pass=)": (
        "tests/dataplane/test_columnar.py: 420-cell passes must give the pinned kernel digest"
    ),
    "dataplane.transmit:simulate_stream(slot_s=)": (
        "tests/steering/test_payload_accounting.py: planner = simulator at 2 s slots"
    ),
    "workload.sharded:ShardPlan(n_shards=)": (
        "tests/workload/test_sharded.py: k in-process shards must reduce to the sequential report"
    ),
    "workload.sharded:ShardedCampaignRunner(path_model=)": (
        "tests/workload/test_sharded.py: k shards and a 2-worker pool, shipped a path model, "
        "must reduce to the bare engine's report; worker death and errors are injected through it"
    ),
    "results.__main__:main(argv=)": "tests/results/test_cli.py drives the CLI in-process",
    "scenarios.loader:run_scenario(base_world=)": (
        "tests/experiments/test_front_door.py: a spec run on the experiment's world equals its door"
    ),
    "experiments.failover:run(drills=)": (
        "tests/faults/test_drills.py: the suite runs the drills it is given, in order"
    ),
}

#: What the resolver's caches are valid for: their owner is built per run
#: or per pool.
_PER_RESOLVER = (
    "a resolver serves one converged service state: each engine and each runner run "
    "builds its own, and a pool's die with the pool, which the runner refuses after a "
    "fault or restore"
)

#: Every memo under ``src/repro`` (``module:Owner.attribute``, a module
#: global or an ``lru_cache``d function) -> what drops it, or why what it
#: caches never changes; a dict that is state, not a memo, says so.  Each
#: memo's entry ends with its hits out of lookups at SMALL seed 7, over
#: the workloads that drive it: the build; "the day", 1,200 users x 9
#: calls (``campaign.run``, 10,800 calls); "the comparison",
#: ``steering.run`` with its defaults (probe telemetry, then three policy
#: runs on fresh engines); "the last-mile campaign",
#: ``lastmile.run_lastmile_campaign`` with its defaults.  Every memo pays.
MEMOS: dict[str, str] = {
    # Dropped when what they cache changes.
    "net.asn:AutonomousSystem._nearest": (
        "dropped by add_presence, the only way presence changes; left out of the pickle; "
        "hits 6 of 13 lookups in the build, 26,404 of 28,308 (93.3%) in the day, "
        "18,914 of 19,150 (98.8%) in the comparison"
    ),
    "vns.geo_rr:GeoRouteReflector._lp_memo": (
        "dropped when the GeoIP version changes, and by invalidate_geo_cache after "
        "router_locations or lp_function change in place; hits 420 of 9,264 lookups "
        "(4.5%) in a SMALL seed-7 build and 20,852 of 20,862 (99.95%) over its "
        "24-event fault timeline, whose restores re-import the same (egress, prefix) "
        "pairs"
    ),
    # Over one converged service state: their owner is built per run or per pool.
    "workload.engine:PathResolver._entry": (
        f"{_PER_RESOLVER}; hits 5,490 of 5,693 lookups (96.4%) in the day, "
        "3,507 of 3,870 (90.6%) in the comparison"
    ),
    "workload.engine:PathResolver._onward": (
        f"{_PER_RESOLVER}; hits 4,391 of 5,693 lookups (77.1%) in the day, "
        "1,047 of 1,935 (54.1%) in the comparison"
    ),
    "workload.engine:PathResolver._pairs": (
        f"{_PER_RESOLVER}; hits 5,107 of 10,800 lookups (47.3%) in the day, "
        "546 of 2,481 (22.0%) in the comparison"
    ),
    "workload.engine:PathResolver._local_exit": (
        f"{_PER_RESOLVER}; hits 1,047 of 1,935 lookups (54.1%) in the comparison; "
        "keyed per pair instead, a 1,200-user x 9-call comparison asks path_local_exit "
        "17,343 times, not 4,170"
    ),
    "measurement.probes:LossProbeCampaign._path_cache": (
        "one probe campaign per collection, over the service state it is built on; "
        "hits 2,640 of 3,168 lookups (83.3%) in the comparison's telemetry, "
        "20,240 of 21,120 (95.8%) in the last-mile campaign"
    ),
    # What they cache never changes once asked for.
    "bgp.propagation:AsLevelRouting._tables": (
        "the AS graph is complete (build_vns joins VNS to it) before any table is asked "
        "for, and nothing changes it after; left out of the pickle; hits 432 of 486 "
        "lookups (88.9%) in the build, 6,098 of 6,099 in the day"
    ),
    "vns.builder:VnsDeployment._session_pops": (
        "the session map is fixed once built (a SessionDown takes a session down, "
        "not out of the map); freeze copies it whole; hits 194 of 203 lookups (95.6%) "
        "in the day, all 7,239 in the comparison"
    ),
    "bgp.policy:_tagged": (
        "interns tagged community sets for every speaker in the process: each key is "
        "its own value; 7,991 of 7,993 eBGP imports in the build share a set"
    ),
    "dataplane.link:SegmentLossTable._canonical": (
        "interns segment values (immutable), keyed by atoms the collector does not "
        "track: each id keeps its one segment; hits 28,418 of 31,407 lookups (90.5%) "
        "in the day"
    ),
    "dataplane.columnar:_tables": (
        "a quantile table is a pure function of its distribution; hits 40 of 42 "
        "lookups in the day"
    ),
    "net.addressing:_render_prefix": (
        "pure in (network, length); hits 33,491 of 33,694 lookups (99.4%) in the day"
    ),
    "geo.cities:nearest_city": (
        "pure: the gazetteer is a module constant; hits 12,121 of 12,392 lookups "
        "(97.8%) in the day"
    ),
    "dataplane.link:_transit_diurnal": (
        "pure in (region, hour): calibration constants; a kernel call asks each "
        "(region, hour bin) once, so hits 0 of 168 lookups in the day (one call), "
        "7,020 of 7,056 in the comparison, 57,324 of 57,432 in the last-mile campaign"
    ),
    "dataplane.link:_access_diurnal": (
        "pure in (region, AS type, hour): calibration constants; a kernel call asks "
        "each (region, type, hour bin) once, so hits 0 of 672 lookups in the day "
        "(one call), 5,112 of 5,184 in the comparison, 20,904 of 21,120 in the "
        "last-mile campaign"
    ),
    # State, not memos.
    "bgp.engine:BgpEngine._inboxes": "state: the messages queued for each speaker",
    "bgp.rib:AdjRib._routes": "state: the Adj-RIB",
    "bgp.router:BgpRouter._advertised_source": (
        "state: the iBGP source each synchronised prefix was last advertised from; "
        "its keys are the synchronised prefixes"
    ),
    "faults.injector:FaultInjector._session_snapshots": "state: what a session fault restores",
    "faults.injector:FaultInjector._pop_snapshots": "state: what a PoP fault restores",
    "geo.geoip:GeoIPDatabase._entries": "state: the database",
    "igp.graph:IgpGraph._adj": "state: the IGP adjacencies",
    "net.relationships:ASGraph._neighbors": "state: the AS graph",
    "net.relationships:ASGraph._customers": "state: the AS graph",
    "net.relationships:ASGraph._providers": "state: the AS graph",
    "net.relationships:ASGraph._peers": "state: the AS graph",
    "perf.counters:_counts": "state: the event counters",
    "perf.counters:_timings": "state: the timers",
    "steering.health:PathHealthTable._entries": "state: the probe-fed corridor health",
    "vns.management:ManagementInterface._forced_exit": "state: the operator's exit overrides",
    "vns.network:VnsNetwork._igp_table": (
        "state: each border router's IGP metrics, the mapping its speaker decides by"
    ),
    "vns.network:VnsNetwork._igp_moved": "state: the prefixes an IGP change re-decides",
}


def _py_files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _label(path: Path) -> str:
    """A package file's module name relative to the package
    (``experiments.steering``)."""
    return ".".join(path.relative_to(PACKAGE).with_suffix("").parts)


def _program() -> tuple[dict[str, str], list[str]]:
    """The package's sources by module name, and every caller's source."""
    package = {_label(path): path.read_text() for path in _py_files(PACKAGE)}
    callers = [path.read_text() for folder in CALLER_DIRS for path in _py_files(ROOT / folder)]
    return package, callers


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


def _name_of(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


# -- resolving names -------------------------------------------------------


class _Bindings:
    """What one file's names are bound to: an import's dotted target
    (``steering`` -> ``repro.experiments.steering``), the file's own
    module-level definitions, and module-level ``alias = module.function``."""

    def __init__(self, dotted: str, tree: ast.Module) -> None:
        self.targets: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    head = alias.name.partition(".")[0]
                    self.targets[alias.asname or head] = alias.name if alias.asname else head
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.targets[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        self.defined = {node.name for node in tree.body if isinstance(node, _DEFS)}
        self.targets.update((name, f"{dotted}.{name}") for name in self.defined)
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], self.dotted(node.value)
                if isinstance(target, ast.Name) and value is not None:
                    self.targets[target.id] = value

    def dotted(self, node: ast.AST, local: Collection[str] = ()) -> str | None:
        """The dotted target of a name or attribute chain; None when it
        starts from a name ``local`` to the enclosing function, or from one
        the file never binds."""
        if isinstance(node, ast.Attribute):
            base = self.dotted(node.value, local)
            return None if base is None else f"{base}.{node.attr}"
        if isinstance(node, ast.Name) and node.id not in local:
            return self.targets.get(node.id)
        return None


class _Package:
    """The scanned files by module name; finds the module-level definition
    a dotted target names, through package re-exports
    (``repro.experiments.build_world`` is ``experiments.common:build_world``)."""

    def __init__(self, trees: dict[str, ast.Module]) -> None:
        self.modules: dict[str, str] = {}  # importable dotted name -> module
        self.bindings: dict[str, _Bindings] = {}
        for label, tree in trees.items():
            stem = label.removesuffix("__init__").rstrip(".")
            dotted = f"{PACKAGE.name}.{stem}".rstrip(".")
            self.modules[dotted] = self.modules[stem or dotted] = label
            self.bindings[label] = _Bindings(dotted, tree)

    def definition(self, target: str | None) -> str | None:
        """``module:name`` when ``target`` names a module-level definition."""
        for _ in self.modules:  # a chain of re-exports, never a cycle
            module, _, name = (target or "").rpartition(".")
            label = self.modules.get(module)
            if label is None:
                return None
            if name in self.bindings[label].defined:
                return f"{label}:{name}"
            target = self.bindings[label].targets.get(name)
        return None


def _local_names(function: ast.FunctionDef) -> set[str]:
    """A function's parameters and the names it (or what it nests) assigns."""
    args = function.args
    every = (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
    names = {arg.arg for arg in every if arg is not None}
    names.update(
        node.id
        for node in ast.walk(function)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)
    )
    return names


class _Passed:
    """What program code passes to each callable, keyed as :class:`_FileScan`
    keys a callee (``module:name``, or a method's or alias's bare name)."""

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


#: The function a scan is inside: (node, its key, (owner class, its key)).
_Scope = tuple[ast.FunctionDef, str, "tuple[ast.ClassDef, str] | None"]


class _FileScan(ast.NodeVisitor):
    """One file's references and calls, each keyed as its target's
    definition and options are: ``module:name`` when the expression
    resolves to a module-level definition, the bare name otherwise (a
    method, an instance's attribute, a local, another package's name)."""

    def __init__(self, package: _Package, label: str, passed: _Passed) -> None:
        self.package = package
        self.label = label
        self.bindings = package.bindings[label]
        self.passed = passed
        #: (key, ids of the definitions enclosing the reference)
        self.references: list[tuple[str, frozenset[int]]] = []
        self.inside: frozenset[int] = frozenset()
        self.local: frozenset[str] = frozenset()
        self.function: _Scope | None = None
        self.classes: list[tuple[ast.ClassDef, str]] = []

    def key(self, node: ast.AST) -> str | None:
        definition = self.package.definition(self.bindings.dotted(node, self.local))
        return definition or _name_of(node)

    def own_key(self, node: ast.FunctionDef | ast.ClassDef) -> str:
        if self.function is None and not self.classes:
            return f"{self.label}:{node.name}"
        return node.name

    def refer(self, key: str | None) -> None:
        if key is not None:
            self.references.append((key, self.inside))

    def annotate(self, annotation: ast.AST | None) -> None:
        """Refer to the names inside the string parts of an annotation."""
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                for inner in ast.walk(parsed):
                    if isinstance(inner, (ast.Name, ast.Attribute)):
                        self.refer(self.key(inner))

    def visit_Name(self, node: ast.Name) -> None:
        # A bare name reaches only the module-level definition it resolves
        # to: a method or property is reached by attribute (``.name``).
        self.refer(self.package.definition(self.bindings.dotted(node, self.local)))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.refer(self.key(node))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            target = f"{node.module}.{alias.name}" if node.module and not node.level else None
            self.refer(self.package.definition(target))

    def visit_arg(self, node: ast.arg | ast.AnnAssign) -> None:
        self.annotate(node.annotation)
        self.generic_visit(node)

    visit_AnnAssign = visit_arg  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        key = self.own_key(node)
        if not any(isinstance(n, ast.FunctionDef) and n.name == "__init__" for n in node.body):
            for base in node.bases:
                if (base_key := self.key(base)) is not None:
                    self.passed.inherits.add((key, base_key))
        self.classes.append((node, key))
        saved, self.inside = self.inside, self.inside | {id(node)}
        self.generic_visit(node)
        self.inside = saved
        self.classes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        owner = self.classes[-1] if self.classes else None
        key = owner[1] if owner and node.name == "__init__" else self.own_key(node)
        self.annotate(node.returns)
        saved = (self.function, self.classes, self.local, self.inside)
        self.function, self.classes = (node, key, owner), []
        self.local = self.local | _local_names(node)
        self.inside = self.inside | {id(node)}
        self.generic_visit(node)
        self.function, self.classes, self.local, self.inside = saved

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _callees(self, func: ast.AST) -> list[str]:
        owner = self.function[2] if self.function else None
        if isinstance(func, ast.Name) and func.id == "cls" and owner is not None:
            return [owner[1]]  # ``cls(**kwargs)`` builds the owner
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and _name_of(func.value.func) == "super"
            and owner is not None
        ):
            return [key for base in owner[0].bases if (key := self.key(base))]
        key = self.key(func)
        return [key] if key is not None else []

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        function, function_key, _ = self.function or (None, "", None)
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
                    self.passed.keyword_forwards.add((function_key, callee))
                else:
                    self.passed.everything.add(callee)
        # ``run_once(benchmark, fig3_precision.run, world, max_prefixes=400)``:
        # what follows a function reference is passed to that function.
        for index, arg in enumerate(node.args):
            referenced = self.key(arg)
            if referenced is not None:
                self.passed.add(referenced, max(n_positional - index - 1, 0), keywords)


def _scan(
    package: dict[str, ast.Module], callers: list[ast.Module], passed: _Passed
) -> dict[str, _FileScan]:
    """Scan the package's modules (by module name) and the callers
    (``<caller i>``) against one another.  A package ``__init__``'s imports
    are re-exports: names resolve through them, but they reference nothing."""
    trees = {**package, **{f"<caller {i}>": tree for i, tree in enumerate(callers)}}
    resolver = _Package(trees)
    scans: dict[str, _FileScan] = {}
    for label, tree in trees.items():
        if label.endswith("__init__"):
            body = [n for n in tree.body if not isinstance(n, (ast.Import, ast.ImportFrom))]
            tree = ast.Module(body=body, type_ignores=[])
        scans[label] = _FileScan(resolver, label, passed)
        scans[label].visit(tree)
    return scans


def uncalled_public_names_in(package: dict[str, str], callers: list[str]) -> list[str]:
    """``module:name (line n)`` for each public definition in ``package``
    (module name -> source) that no code in ``package`` or ``callers``
    (sources) references outside the definition's own body, sorted."""
    trees = {label: ast.parse(source) for label, source in package.items()}
    scans = _scan(trees, [ast.parse(source) for source in callers], _Passed())
    naming: dict[str, set[str]] = {}  # key -> the files referencing it
    for label, scan in scans.items():
        for key, _ in scan.references:
            naming.setdefault(key, set()).add(label)
    missing: list[str] = []
    for label, tree in trees.items():
        module_level = {id(node) for node in tree.body}
        for definition in _definitions(tree):
            name = definition.name  # type: ignore[attr-defined]
            key = f"{label}:{name}" if id(definition) in module_level else name
            if name in KEPT_FOR_TESTS or naming.get(key, set()) - {label}:
                continue
            # Only this file names it: a reference outside its own body.
            if any(k == key and id(definition) not in inside for k, inside in scans[label].references):
                continue
            missing.append(f"{label}:{name} (line {definition.lineno})")  # type: ignore[attr-defined]
    return sorted(missing)


def uncalled_public_names() -> list[str]:
    """:func:`uncalled_public_names_in` over ``src/repro`` with the program's callers."""
    return uncalled_public_names_in(*_program())


# -- keyword options -------------------------------------------------------


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


def _options(module: str, tree: ast.Module) -> list[_Option]:
    """Every defaulted parameter of a public function, method or constructor
    and every defaulted field of a public frozen dataclass in ``tree``."""
    found: list[_Option] = []
    stack: list[tuple[ast.stmt, ast.ClassDef | None, str]] = [(n, None, "") for n in tree.body]
    while stack:
        node, owner, prefix = stack.pop()
        if not isinstance(node, _DEFS):
            continue
        # What a caller reaches it by: a module-level name per module, a
        # method or nested class by its name.
        key = node.name if prefix else f"{module}:{node.name}"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_"):
                continue
            for option, position in _parameter_options(node, owner is not None):
                found.append((module, prefix + node.name, key, option, position, node.lineno))
        else:
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
                    (module, qualname, key, name, position, node.lineno)
                    for name, position, has_default in fields
                    if has_default
                )
            elif init is not None:
                found.extend(
                    (module, qualname, key, option, position, init.lineno)
                    for option, position in _parameter_options(init, True)
                )
    return found


def unset_options_in(package: dict[str, str], callers: list[str]) -> list[str]:
    """``module:Name(option=) (line n)`` for each option in ``package``
    (module name -> source) that no code in ``package`` or ``callers``
    (sources) sets, sorted."""
    passed = _Passed()
    trees = {module: ast.parse(source) for module, source in package.items()}
    options = [o for module, tree in trees.items() for o in _options(module, tree)]
    caller_trees = [ast.parse(source) for source in callers]
    # Aliases first, so a call written above its alias still counts: import
    # aliases, and module-level ``intern_segment = LOSS_TABLE.intern``.
    for tree in [*trees.values(), *caller_trees]:
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.asname:
                passed.aliases[node.asname] = node.name.rsplit(".", 1)[-1]
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, source = node.targets[0], _name_of(node.value)
                if isinstance(target, ast.Name) and source not in (None, target.id):
                    passed.aliases[target.id] = source
    _scan(trees, caller_trees, passed)
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
    return unset_options_in(*_program())


# -- memos -----------------------------------------------------------------

_CACHE_DECORATORS = frozenset({"lru_cache", "cache", "cached_property"})


def _is_empty_dict(node: ast.AST | None) -> bool:
    """``{}``, ``dict()`` or ``field(default_factory=dict)``."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if not isinstance(node, ast.Call):
        return False
    if _name_of(node.func) == "dict":
        return not node.args and not node.keywords
    return _name_of(node.func) == "field" and any(
        k.arg == "default_factory" and _name_of(k.value) == "dict" for k in node.keywords
    )


def _bindings(node: ast.AST) -> list[tuple[ast.AST, ast.AST | None]]:
    """``(target, value)`` of an assignment statement; none otherwise."""
    if isinstance(node, ast.Assign):
        return [(target, node.value) for target in node.targets]
    if isinstance(node, ast.AnnAssign):
        return [(node.target, node.value)]
    return []


def memos_in(module: str, tree: ast.Module) -> dict[str, int]:
    """``module:label`` -> line of each memo in ``tree``: a private
    attribute (``Owner._name``) or a module global bound to an empty dict
    and read inside a function (so on a later call than the one binding
    it), and each ``lru_cache``d function."""
    cached: dict[str, int] = {}  # the lru_cache'd functions
    bound: dict[str, tuple[str, int]] = {}  # ".attr" or global -> (label, line)
    read: set[str] = set()

    def visit(node: ast.AST, owner: str, in_function: bool) -> None:
        for target, value in _bindings(node):
            if not _is_empty_dict(value):
                continue
            if isinstance(target, ast.Name) and not in_function:
                # A module global, or a class-level (dataclass) field.
                name = f".{target.id}" if owner else target.id
            elif isinstance(target, ast.Attribute) and _name_of(target.value) == "self" and owner:
                name = f".{target.attr}"
            else:
                continue
            if owner and not name.startswith("._"):
                continue
            bound.setdefault(name, (f"{module}:{owner}{name}", node.lineno))
        if in_function and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        if in_function and isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(f".{node.attr}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(
                _name_of(d.func if isinstance(d, ast.Call) else d) in _CACHE_DECORATORS
                for d in node.decorator_list
            ):
                label = f"{owner}.{node.name}" if owner else node.name
                cached[f"{module}:{label}"] = node.lineno
            in_function = True
        if isinstance(node, ast.ClassDef):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner, in_function)

    visit(tree, "", False)
    return cached | {label: line for name, (label, line) in bound.items() if name in read}


def unregistered_memos_in(package: dict[str, str]) -> list[str]:
    """``module:label (line n)`` for each memo in ``package`` (module name
    -> source) that :data:`MEMOS` does not name, sorted."""
    return sorted(
        f"{label} (line {line})"
        for module, source in package.items()
        for label, line in memos_in(module, ast.parse(source)).items()
        if label not in MEMOS
    )


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
        for module, qualname, _, option, _, _ in _options(_label(path), _parse(path))
    }
    assert set(KEPT_OPTIONS) <= labels, set(KEPT_OPTIONS) - labels


def test_every_memo_is_registered():
    package, _ = _program()
    unregistered = unregistered_memos_in(package)
    assert not unregistered, (
        "memos MEMOS does not name (delete the memo, or say in MEMOS what drops "
        "it or why what it caches never changes; a dict that is state says so):\n  "
        + "\n  ".join(unregistered)
    )


def test_registered_memos_still_exist():
    package, _ = _program()
    found = {
        label for module, source in package.items() for label in memos_in(module, ast.parse(source))
    }
    assert set(MEMOS) <= found, set(MEMOS) - found


class TestMemoScanner:
    """The memo scan on planted sources."""

    def test_reports_an_unregistered_dict_memo_and_lru_cache(self):
        package = {
            "m": (
                "from functools import lru_cache\n"
                "class Table:\n"
                "    def __init__(self):\n"
                "        self._memo = {}\n"
                "        self._unread = {}\n"
                "        self.public = {}\n"
                "    def get(self, key):\n"
                "        return self._memo.setdefault(key, key)\n"
                "_CACHE = dict()\n"
                "def cached(key):\n"
                "    return _CACHE.get(key)\n"
                "@lru_cache(maxsize=None)\n"
                "def render(value):\n"
                "    return str(value)\n"
            )
        }
        assert unregistered_memos_in(package) == [
            "m:Table._memo (line 4)",
            "m:_CACHE (line 9)",
            "m:render (line 13)",
        ]

    def test_lazy_and_dataclass_memos(self):
        package = {
            "m": (
                "from dataclasses import dataclass, field\n"
                "@dataclass\n"
                "class Point:\n"
                "    _near: dict = field(default_factory=dict)\n"
                "    _far: dict | None = None\n"
                "    def near(self, key):\n"
                "        return self._near.get(key)\n"
                "    def far(self, key):\n"
                "        memo = self._far\n"
                "        if memo is None:\n"
                "            memo = self._far = {}\n"
                "        return memo.get(key)\n"
            )
        }
        assert unregistered_memos_in(package) == [
            "m:Point._far (line 11)",
            "m:Point._near (line 4)",
        ]

    def test_a_registered_memo_passes(self):
        source = "@lru_cache(maxsize=None)\ndef nearest_city(point):\n    return point\n"
        assert unregistered_memos_in({"geo.cities": source}) == []


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
        assert unset_options_in(package, ["from m import Config, f\nf(1)\nConfig()"]) == [
            "m:Config(seed=) (line 6)",
            "m:f(y=) (line 3)",
        ]

    def test_keyword_or_position_sets_it(self):
        package = {"m": "def f(x, y=1):\n    return x + y\n"}
        assert unset_options_in(package, ["from m import f\nf(1, y=2)"]) == []
        assert unset_options_in(package, ["import m\nm.f(1, 2)"]) == []

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
        caller = "import m\nrun_once(benchmark, m.run, world, max_prefixes=400)"
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
        assert unset_options_in(package, ["from m import Reflector\nReflector('r1', mrai=5.0)"]) == []
        assert unset_options_in(package, ["from m import Reflector\nReflector('r1')"]) == [
            "m:Router(mrai=) (line 2)"
        ]


class TestPerModuleResolution:
    """A module-level callee is credited only in the module it resolves to;
    two modules each define ``run(x=0)``."""

    PACKAGE = {"m": "def run(x=0):\n    return x\n", "n": "def run(x=0):\n    return x\n"}

    def test_module_attribute_call_sets_only_that_module(self):
        caller = "from repro import m\nm.run(x=1)"
        assert unset_options_in(self.PACKAGE, [caller]) == ["n:run(x=) (line 1)"]

    def test_imported_function_sets_only_its_module(self):
        for caller in ("from m import run\nrun(x=1)", "from m import run as go\ngo(x=1)"):
            assert unset_options_in(self.PACKAGE, [caller]) == ["n:run(x=) (line 1)"], caller

    def test_forwarded_reference_sets_only_its_module(self):
        caller = "import m\nrun_once(benchmark, m.run, world, x=1)"
        assert unset_options_in(self.PACKAGE, [caller]) == ["n:run(x=) (line 1)"]

    def test_reexport_resolves_to_the_defining_module(self):
        package = {"p.__init__": "from p.impl import run\n", "p.impl": "def run(x=0):\n    return x\n"}
        assert unset_options_in(package, ["from p import run\nrun(x=1)"]) == []

    def test_instance_method_stays_name_matched(self):
        package = {
            "m": (
                "class Table:\n"
                "    def run(self, x=0):\n"
                "        return x\n"
                "def run(x=0):\n"
                "    return x\n"
            )
        }
        assert unset_options_in(package, ["table.run(x=1)"]) == ["m:run(x=) (line 4)"]

    def test_a_parameter_shadows_the_module_it_is_named_after(self):
        caller = "import m\ndef drive(m):\n    m.run(x=1)\n"
        assert unset_options_in(self.PACKAGE, [caller]) == [
            "m:run(x=) (line 1)",
            "n:run(x=) (line 1)",
        ]

    def test_a_bare_name_does_not_reach_a_method(self):
        package = {
            "m": (
                "class Link:\n"
                "    def other(self, node):\n"
                "        return node\n"
                "    @property\n"
                "    def far(self):\n"
                "        return 1\n"
            )
        }
        caller = "from m import Link\ndef walk(other, far):\n    return other(far), Link\n"
        assert uncalled_public_names_in(package, [caller]) == [
            "m:far (line 5)",
            "m:other (line 2)",
        ]
        caller = "from m import Link\nlink = Link()\nlink.other(1)\nlink.far"
        assert uncalled_public_names_in(package, [caller]) == []

    def test_a_name_reference_reaches_only_its_module(self):
        assert uncalled_public_names_in(self.PACKAGE, ["from repro import m\nm.run"]) == [
            "n:run (line 1)"
        ]
