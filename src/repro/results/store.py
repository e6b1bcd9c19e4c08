"""The sqlite-backed persistent results store.

One store file accumulates every bench, campaign and experiment row the
repo produces, keyed by ``(git_rev, bench, scale, seed, recorded_at)``.
Stdlib-only (``sqlite3`` + ``json``).

The row is the record
---------------------
A run is one ``runs`` row (the only table besides ``meta``): the key
columns plus three canonical-JSON columns —

``payload``
    The bench's result document.
``reports``
    ``label -> {"pairs": ...}``: the per-pair block of each
    CampaignReport-shaped dict recorded under a label (a scale, a
    policy name, ...).
``perf``
    A :class:`~repro.perf.counters.PerfSnapshot` ``to_dict()``.

Everything else is a view computed on read by a pure function of the
row, so a store seeded by :meth:`ResultsStore.import_jsonl` answers
every query exactly like the store that recorded the run:

:meth:`ResultsStore.metrics`
    Every numeric leaf of the payload as a dotted path
    (``scales.small.engine.calls_per_s``); ints stay ints so the
    tolerance differ compares counts exactly.
:meth:`ResultsStore.pair_metrics`
    ``(report, src, dst, transport, metric, value)`` per directed
    region pair — what the corridor heatmap reads.
:meth:`ResultsStore.perf_rows`
    ``(kind, name, count, total_s, cpu_s)`` per counter and timer.

:meth:`ResultsStore.regression` (latest vs baseline through the shared
tolerance differ, :mod:`repro.tolerance`), the trajectory table and the
heatmaps read the same views.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro.tolerance import ToleranceDiff, diff_reports

#: Default relative tolerance for cross-commit regression checks.
#: Looser than the golden differ's 5%: trajectory rows cross hosts and
#: runner load, where throughput legitimately moves tens of percent.
REGRESSION_RTOL = 0.25

#: Bumped with every table-layout change; a store file carrying another
#: version refuses to open (:class:`StoreSchemaError`).
SCHEMA_VERSION = "3"

#: One transaction, so a concurrent opener sees no tables or all of it.
_SCHEMA = f"""
BEGIN IMMEDIATE;
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    bench       TEXT NOT NULL,
    scale       TEXT NOT NULL DEFAULT '',
    seed        INTEGER NOT NULL DEFAULT 0,
    git_rev     TEXT NOT NULL,
    recorded_at TEXT NOT NULL,
    payload     TEXT NOT NULL,
    reports     TEXT NOT NULL DEFAULT '{{}}',
    perf        TEXT NOT NULL DEFAULT '{{}}'
);
CREATE INDEX IF NOT EXISTS idx_runs_bench ON runs (bench, recorded_at, id);
INSERT OR IGNORE INTO meta (key, value)
    VALUES ('schema_version', '{SCHEMA_VERSION}');
COMMIT;
"""

#: Pair-summary sub-blocks stored under their own transport label; every
#: other pair column lands under the empty transport.
_PAIR_TRANSPORTS = ("vns", "internet", "steering")


@dataclass(frozen=True, slots=True)
class RunKey:
    """The identity of one recorded run."""

    bench: str
    scale: str = ""
    seed: int = 0
    git_rev: str = "unknown"
    recorded_at: str = ""

    def __post_init__(self) -> None:
        if not self.bench:
            raise ValueError("RunKey.bench must be a non-empty name")


#: ``runs`` columns after ``id``: the :class:`RunKey` fields in order,
#: then the three JSON documents.
_RUN_COLUMNS = ", ".join(
    [*(field.name for field in fields(RunKey)), "payload", "reports", "perf"]
)
_INSERT_RUN = f"INSERT INTO runs ({_RUN_COLUMNS}) VALUES (?, ?, ?, ?, ?, ?, ?, ?)"


@dataclass(frozen=True, slots=True)
class RunRow:
    """One stored run: key fields plus the parsed JSON columns."""

    id: int
    key: RunKey
    payload: dict
    reports: dict
    perf: dict

    @property
    def bench(self) -> str:
        return self.key.bench

    @property
    def git_rev(self) -> str:
        return self.key.git_rev

    @property
    def recorded_at(self) -> str:
        return self.key.recorded_at


@dataclass(frozen=True, slots=True)
class Gate:
    """One regression-gated metric.

    ``metric`` may carry a direction prefix: ``+name`` tolerates any
    improvement and gates only a drop (higher is better), ``-name`` the
    reverse; a bare name is two-sided.  ``rtol`` follows the shared
    differ's semantics (at its default ``atol``).
    """

    metric: str
    rtol: float = REGRESSION_RTOL

    @property
    def direction(self) -> str:
        return self.metric[0] if self.metric[:1] in "+-" else ""

    @property
    def name(self) -> str:
        return self.metric.lstrip("+-")


@dataclass(slots=True)
class RegressionReport:
    """The outcome of one cross-commit regression check."""

    bench: str
    latest: RunRow | None
    baseline: RunRow | None
    diff: ToleranceDiff

    @property
    def ok(self) -> bool:
        """No regression.  A bench with fewer than two recorded runs is
        vacuously fine — there is nothing to regress against yet."""
        if self.latest is None or self.baseline is None:
            return True
        return self.diff.ok

    def render(self) -> str:
        if self.latest is None:
            return f"{self.bench}: no runs recorded"
        if self.baseline is None:
            return (
                f"{self.bench}: only {self.latest.git_rev} recorded — "
                "no baseline to compare against"
            )
        return self.diff.render()


def flatten_metrics(payload: object) -> dict[str, int | float]:
    """Every numeric leaf of ``payload`` as ``dotted.path -> value``.

    Bools, strings and ``None`` are skipped (they live in the payload
    itself); list elements are indexed ``name[i]``.
    """
    flat: dict[str, int | float] = {}
    _flatten_into(payload, "", flat)
    return flat


def _flatten_into(value: object, path: str, flat: dict[str, int | float]) -> None:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return
    if isinstance(value, (int, float)):
        if path:
            flat[path] = value
        return
    if isinstance(value, Mapping):
        for key in value:
            child = f"{path}.{key}" if path else str(key)
            _flatten_into(value[key], child, flat)
        return
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _flatten_into(item, f"{path}[{index}]", flat)


def canonical_json(payload: dict, *, indent: int | None = None) -> str:
    """The store's one serialisation: sorted keys, fixed separators."""
    return json.dumps(
        payload, indent=indent, sort_keys=True, separators=(",", ": ")
    )


def _pair_rows(
    report_name: str, report: Mapping
) -> Iterator[tuple[str, str, str, str, str, float]]:
    """Flatten one CampaignReport-shaped dict into pair_metrics rows."""
    pairs = report.get("pairs")
    if not isinstance(pairs, Mapping):
        return
    for pair_key, summary in pairs.items():
        src, _, dst = str(pair_key).partition("->")
        if not dst or not isinstance(summary, Mapping):
            continue
        for name, value in flatten_metrics(summary).items():
            head, _, rest = name.partition(".")
            if head in _PAIR_TRANSPORTS and rest:
                transport, metric = head, rest
            else:
                transport, metric = "", name
            yield report_name, src, dst, transport, metric, float(value)


class StoreSchemaError(RuntimeError):
    """The store file was written by a different schema version."""


class HistoryFormatError(ValueError):
    """A JSONL history file has a line that is not a run entry."""


class ResultsStore:
    """A sqlite results store (see module docstring for the schema).

    Usable as a context manager; ``path`` may be ``":memory:"`` for
    tests.  All writes are transactional per :meth:`record_run` /
    :meth:`import_jsonl` call.
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._db = sqlite3.connect(self.path)
        found = self._stored_schema_version()
        if found is None:  # a fresh file
            self._db.executescript(_SCHEMA)
        elif found != SCHEMA_VERSION:
            self._db.close()
            raise StoreSchemaError(
                f"{self.path}: store schema version {found!r}, this code reads"
                f" {SCHEMA_VERSION!r} — the sqlite file is a rebuildable"
                " artifact: delete the file and `python -m repro.results"
                " import benchmarks/results/history.jsonl`"
            )

    def _stored_schema_version(self) -> str | None:
        """``meta.schema_version``, or ``None`` when the file has no tables."""
        if not self._db.execute("SELECT 1 FROM sqlite_master").fetchone():
            return None
        try:
            row = self._db.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
        except sqlite3.OperationalError:  # some other sqlite file
            row = None
        return row[0] if row else ""

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    def record_run(
        self,
        key: RunKey,
        payload: dict,
        *,
        reports: Mapping[str, Mapping] | None = None,
        perf: Mapping | None = None,
    ) -> int:
        """Store one run as one row; returns its ``run_id``.

        ``reports`` maps a label (a scale, a policy name, ...) to a
        CampaignReport-shaped dict; its ``pairs`` block is what the row
        keeps (the per-pair QoE columns :meth:`pair_metrics` reads).
        ``perf`` is a :class:`~repro.perf.counters.PerfSnapshot` or its
        ``to_dict()``.
        """
        values = _row_values(key, payload, reports, perf)
        with self._db:
            return int(self._db.execute(_INSERT_RUN, values).lastrowid)

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def benches(self) -> tuple[str, ...]:
        rows = self._db.execute("SELECT DISTINCT bench FROM runs ORDER BY bench")
        return tuple(name for (name,) in rows)

    def runs(self, bench: str | None = None) -> list[RunRow]:
        """``bench``'s runs (every run if ``None``), oldest first
        (``recorded_at`` then insert id)."""
        where, params = ("WHERE bench = ?", (bench,)) if bench is not None else ("", ())
        rows = self._db.execute(
            f"SELECT id, {_RUN_COLUMNS} FROM runs {where} ORDER BY recorded_at, id",
            params,
        )
        return [_run_row(row) for row in rows]

    def latest(self, bench: str) -> RunRow | None:
        """The most recently recorded run of ``bench`` (or ``None``)."""
        rows = self.runs(bench)
        return rows[-1] if rows else None

    def run(self, run_id: int) -> RunRow:
        row = self._db.execute(
            f"SELECT id, {_RUN_COLUMNS} FROM runs WHERE id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise KeyError(f"no run {run_id}")
        return _run_row(row)

    def metrics(self, run_id: int) -> dict[str, int | float]:
        """One run's flattened payload metrics, sorted by name."""
        return dict(sorted(flatten_metrics(self.run(run_id).payload).items()))

    def pair_metrics(
        self,
        run_id: int,
        *,
        report: str | None = None,
        transport: str | None = None,
        metric: str | None = None,
    ) -> list[tuple[str, str, str, str, str, float]]:
        """``(report, src, dst, transport, metric, value)`` rows, sorted."""
        wanted = (report, None, None, transport, metric)
        return sorted(
            row
            for name, body in self.run(run_id).reports.items()
            for row in _pair_rows(name, body)
            if all(want is None or want == got for want, got in zip(wanted, row))
        )

    def perf_rows(self, run_id: int) -> list[tuple[str, str, float, float, float]]:
        """``(kind, name, count, total_s, cpu_s)`` rows for one run."""
        return list(_perf_rows(self.run(run_id).perf))

    # ------------------------------------------------------------------ #
    # regression
    # ------------------------------------------------------------------ #

    def regression(
        self,
        bench: str,
        *,
        metrics: Iterable[str | Gate] | None = None,
        baseline_rev: str | None = None,
    ) -> RegressionReport:
        """Check the latest ``bench`` run against its baseline.

        The baseline is the newest earlier run recorded at a *different*
        git rev (so re-running a bench twice on one commit compares
        against history, not itself), falling back to the previous row;
        ``baseline_rev`` pins it explicitly.  ``metrics`` selects the
        gated columns — strings with an optional ``+``/``-`` direction
        prefix, or :class:`Gate` values carrying their own tolerance.
        ``None`` gates every metric the two runs share, two-sided at
        :data:`REGRESSION_RTOL` (ints exact, the differ's contract).

        Directional gates never fail on improvement: when the latest
        value is at least as good as the baseline the comparison is
        satisfied before the differ runs.
        """
        rows = self.runs(bench)
        if not rows:
            return RegressionReport(
                bench, None, None, ToleranceDiff(key=bench, missing=True)
            )
        latest = rows[-1]
        baseline = _pick_baseline(rows, baseline_rev)
        if baseline is None:
            return RegressionReport(
                bench, latest, None, ToleranceDiff(key=bench, missing=True)
            )
        base_metrics = flatten_metrics(baseline.payload)
        new_metrics = flatten_metrics(latest.payload)
        key = (
            f"{bench}: {baseline.git_rev} ({baseline.recorded_at})"
            f" -> {latest.git_rev} ({latest.recorded_at})"
        )
        diff = ToleranceDiff(key=key)
        if metrics is None:
            metrics = sorted(base_metrics.keys() & new_metrics.keys())
        for gate in metrics:
            if isinstance(gate, str):
                gate = Gate(gate)
            name = gate.name
            missing = name not in base_metrics, name not in new_metrics
            if all(missing):
                continue  # metric predates both runs — nothing to gate
            golden = {} if missing[0] else {name: base_metrics[name]}
            actual = {} if missing[1] else {name: new_metrics[name]}
            if golden and actual:
                actual = {name: _clamp_improvement(
                    gate.direction, base_metrics[name], new_metrics[name]
                )}
            diff.mismatches.extend(
                diff_reports(
                    golden, actual, key=key, rtol=gate.rtol
                ).mismatches
            )
        return RegressionReport(bench, latest, baseline, diff)

    # ------------------------------------------------------------------ #
    # portable history (the committable text form)
    # ------------------------------------------------------------------ #

    def export_jsonl(self) -> str:
        """Every run as one canonical JSON object per line, oldest first.

        The committable text form of the store, and lossless: importing
        it into a fresh store answers every query identically, and
        exporting that store again is byte-identical.  ``reports`` and
        ``perf`` appear on a line only when the run recorded them.
        """
        lines = []
        for row in self.runs():
            entry = {**asdict(row.key), "payload": row.payload}
            if row.reports:
                entry["reports"] = row.reports
            if row.perf:
                entry["perf"] = row.perf
            lines.append(canonical_json(entry) + "\n")
        return "".join(lines)

    def import_jsonl(self, source: str | Path) -> list[int]:
        """Append runs from a :meth:`export_jsonl` file; returns run ids.

        All or nothing: every line is parsed before the first insert and
        the inserts share one transaction.  A line that is not a run
        entry raises :class:`HistoryFormatError` naming file and line.
        """
        rows = []
        text = Path(source).read_text(encoding="utf-8")
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                key = RunKey(
                    **{f.name: entry[f.name] for f in fields(RunKey) if f.name in entry}
                )
                rows.append(
                    _row_values(
                        key, entry["payload"], entry.get("reports"), entry.get("perf")
                    )
                )
            except (ValueError, KeyError, TypeError, AttributeError) as error:
                raise HistoryFormatError(
                    f"{source}:{number}: not a run entry ({error!r})"
                ) from error
        with self._db:
            return [
                int(self._db.execute(_INSERT_RUN, values).lastrowid)
                for values in rows
            ]


def _pick_baseline(rows: list[RunRow], baseline_rev: str | None) -> RunRow | None:
    latest = rows[-1]
    if baseline_rev is not None:
        for row in reversed(rows[:-1]):
            if row.git_rev == baseline_rev:
                return row
        return None
    for row in reversed(rows[:-1]):
        if row.git_rev != latest.git_rev:
            return row
    return rows[-2] if len(rows) > 1 else None


def _clamp_improvement(
    direction: str, baseline: int | float, latest: int | float
) -> int | float:
    """For directional gates, an improvement compares as 'unchanged'."""
    if direction == "+" and latest >= baseline:
        return baseline
    if direction == "-" and latest <= baseline:
        return baseline
    return latest


def _row_values(
    key: RunKey,
    payload: dict,
    reports: Mapping[str, Mapping] | None,
    perf: Mapping | None,
) -> tuple:
    """The ``_INSERT_RUN`` parameters for one run (validates, no I/O)."""
    if not key.recorded_at:
        raise ValueError("RunKey.recorded_at must be set before recording")
    pairs = {
        name: {"pairs": report["pairs"]}
        for name, report in (reports or {}).items()
        if isinstance(report.get("pairs"), Mapping)
    }
    perf_dict = perf.to_dict() if hasattr(perf, "to_dict") else perf
    return (
        *astuple(key),
        canonical_json(payload),
        canonical_json(pairs),
        canonical_json(dict(perf_dict or {})),
    )


def _run_row(row: tuple) -> RunRow:
    """One ``SELECT id, <_RUN_COLUMNS>`` tuple as a :class:`RunRow`."""
    payload, reports, perf = (json.loads(column) for column in row[-3:])
    return RunRow(
        id=row[0], key=RunKey(*row[1:-3]), payload=payload, reports=reports, perf=perf
    )


def _perf_rows(perf_dict: Mapping) -> Iterator[tuple[str, str, float, float, float]]:
    for name, count in sorted(perf_dict.get("counters", {}).items()):
        yield "counter", name, float(count), 0.0, 0.0
    for name, entry in sorted(perf_dict.get("timers", {}).items()):
        yield (
            "timer",
            name,
            float(entry.get("calls", 0)),
            float(entry.get("total_s", 0.0)),
            float(entry.get("cpu_s", 0.0)),
        )
