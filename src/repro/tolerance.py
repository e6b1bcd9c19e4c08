"""Tolerance-aware comparison of nested report structures.

The one float-comparison implementation the repo's regression gates
share: scenario-matrix golden checks (:mod:`repro.scenarios.golden`)
and the results store's cross-commit perf regression
(:meth:`repro.results.ResultsStore.regression`) both diff through here.

Within one run, sequential-vs-sharded byte-identity is asserted exactly.
*Committed* reference values cross machine and library versions, where
float arithmetic may differ in the low bits — so the differ compares
structure, strings, bools and integer counts exactly, and floats within
``rtol`` plus :data:`DEFAULT_ATOL`.  Every mismatch is reported with its dotted path into
the structure and both values, so a regression reads like a diff, not a
boolean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Relative float tolerance for committed references (QoE percentiles
#: move in the 4th digit across numpy builds, never by 5%).
DEFAULT_RTOL = 0.05
#: Absolute float tolerance, added to every relative one.
DEFAULT_ATOL = 1e-9


@dataclass(slots=True)
class ToleranceDiff:
    """The comparison result for one keyed structure."""

    key: str
    mismatches: list[str] = field(default_factory=list)
    #: No committed reference existed for the key.
    missing: bool = False

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.missing

    def render(self) -> str:
        if self.missing:
            return f"{self.key}: no golden committed"
        if not self.mismatches:
            return f"{self.key}: ok"
        lines = [f"{self.key}: {len(self.mismatches)} mismatch(es)"]
        lines.extend(f"  {mismatch}" for mismatch in self.mismatches)
        return "\n".join(lines)


def diff_values(
    path: str,
    golden: object,
    actual: object,
    mismatches: list[str],
    rtol: float,
) -> None:
    """Recursively diff ``actual`` against ``golden``, appending mismatches."""
    # bool is an int subclass — compare it exactly, as itself.
    if isinstance(golden, bool) or isinstance(actual, bool):
        if golden is not actual:
            mismatches.append(f"{path}: golden {golden!r}, got {actual!r}")
        return
    if isinstance(golden, float) and isinstance(actual, (int, float)):
        if abs(actual - golden) > DEFAULT_ATOL + rtol * abs(golden):
            mismatches.append(
                f"{path}: golden {golden!r}, got {actual!r} "
                f"(tolerance rtol={rtol}, atol={DEFAULT_ATOL})"
            )
        return
    if type(golden) is not type(actual):
        mismatches.append(
            f"{path}: type changed from {type(golden).__name__} "
            f"to {type(actual).__name__}"
        )
        return
    if isinstance(golden, dict):
        for key in sorted(golden.keys() | actual.keys()):
            child = f"{path}.{key}" if path else str(key)
            if key not in actual:
                mismatches.append(f"{child}: missing from report")
            elif key not in golden:
                mismatches.append(f"{child}: unexpected key (not in golden)")
            else:
                diff_values(child, golden[key], actual[key], mismatches, rtol)
        return
    if isinstance(golden, list):
        if len(golden) != len(actual):
            mismatches.append(
                f"{path}: length changed from {len(golden)} to {len(actual)}"
            )
            return
        for index, (g, a) in enumerate(zip(golden, actual)):
            diff_values(f"{path}[{index}]", g, a, mismatches, rtol)
        return
    if golden != actual:
        mismatches.append(f"{path}: golden {golden!r}, got {actual!r}")


def diff_reports(
    golden: dict,
    actual: dict,
    *,
    key: str = "",
    rtol: float = DEFAULT_RTOL,
) -> ToleranceDiff:
    """Compare a report dict against its reference, tolerance-aware.

    Ints, strings and bools must match exactly (counts are seed-stable);
    floats within ``DEFAULT_ATOL + rtol * |golden|``.  Structural drift (keys,
    list lengths, types) always mismatches.
    """
    diff = ToleranceDiff(key=key)
    diff_values("", golden, actual, diff.mismatches, rtol)
    return diff
