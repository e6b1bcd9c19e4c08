"""Golden-report regression checks for scenario matrix cells.

The tolerance-aware differ itself lives in :mod:`repro.tolerance` (the
results store's cross-commit :meth:`~repro.results.ResultsStore.regression`
gate shares it); this module keeps the golden-file workflow — one
committed JSON per cell key, a ``GOLDEN_REGEN=1`` regeneration knob, and
the missing-golden bookkeeping.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.tolerance import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    ToleranceDiff,
    diff_reports,
)

#: Environment knob: regenerate committed goldens instead of comparing.
REGEN_ENV = "GOLDEN_REGEN"

__all__ = [
    "DEFAULT_ATOL",
    "DEFAULT_RTOL",
    "REGEN_ENV",
    "GoldenStore",
    "diff_reports",
]


class GoldenStore:
    """Committed golden reports, one JSON file per cell key."""

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)

    def path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> dict | None:
        try:
            with self.path(key).open("r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None

    def save(self, key: str, report: dict) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path(key)
        path.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return path

    def keys(self) -> tuple[str, ...]:
        if not self.directory.is_dir():
            return ()
        return tuple(sorted(p.stem for p in self.directory.glob("*.json")))

    def check(
        self,
        key: str,
        report: dict,
        *,
        update: bool = False,
    ) -> ToleranceDiff:
        """Compare ``report`` against the committed golden for ``key``, at
        the differ's default tolerances.

        ``update=True`` (or ``GOLDEN_REGEN=1`` in the environment)
        rewrites the golden and reports a clean diff — the regeneration
        workflow for intentional behaviour changes.
        """
        if update or os.environ.get(REGEN_ENV, "") not in ("", "0"):
            self.save(key, report)
            return ToleranceDiff(key=key)
        golden = self.load(key)
        if golden is None:
            return ToleranceDiff(key=key, missing=True)
        return diff_reports(golden, report, key=key)
