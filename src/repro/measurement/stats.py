"""Statistics helpers for measurement analysis (CDFs, CCDFs, summaries)."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class Cdf:
    """An empirical cumulative distribution function."""

    xs: np.ndarray
    ps: np.ndarray

    @classmethod
    def of(cls, values: Iterable[float]) -> "Cdf":
        """Build from raw samples.

        Raises
        ------
        ValueError
            For an empty sample set.
        """
        data = np.asarray(sorted(values), dtype=float)
        if data.size == 0:
            raise ValueError("cannot build a CDF from no samples")
        ps = np.arange(1, data.size + 1) / data.size
        return cls(xs=data, ps=ps)

    def at(self, x: float) -> float:
        """P(X <= x)."""
        return float(np.searchsorted(self.xs, x, side="right") / self.xs.size)

    def quantile(self, q: float) -> float:
        """The q-quantile (0 < q <= 1).

        Raises
        ------
        ValueError
            For q outside (0, 1].
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q!r}")
        index = min(self.xs.size - 1, int(np.ceil(q * self.xs.size)) - 1)
        return float(self.xs[max(index, 0)])

    def series(self) -> list[tuple[float, float]]:
        """(x, P(X<=x)) pairs, suitable for plotting or table rendering."""
        return list(zip(self.xs.tolist(), self.ps.tolist()))

    def __len__(self) -> int:
        return int(self.xs.size)


@dataclass(slots=True)
class Ccdf:
    """An empirical complementary CDF, strictly: P(X > x).

    One convention everywhere: the complement of the empirical
    :class:`Cdf` (``P(X <= x)``), so ``ccdf.at(x) + cdf.at(x) == 1`` and
    :meth:`series` agrees with :meth:`at` at every distinct sample point
    (for ties, on the last row of the tie) — the
    largest sample gets probability 0.  (``of`` used to assign it
    ``1/n``, i.e. ``P(X >= x)``, silently disagreeing with ``at``.)
    """

    xs: np.ndarray
    ps: np.ndarray

    @classmethod
    def of(cls, values: Iterable[float]) -> "Ccdf":
        """Build from raw samples.

        Raises
        ------
        ValueError
            For an empty sample set.
        """
        cdf = Cdf.of(values)
        return cls(xs=cdf.xs, ps=1.0 - cdf.ps)

    def at(self, x: float) -> float:
        """P(X > x)."""
        data = self.xs
        return float((data > x).sum() / data.size)

    def series(self) -> list[tuple[float, float]]:
        """(x, P(X>x)) pairs."""
        return list(zip(self.xs.tolist(), self.ps.tolist()))

    def __len__(self) -> int:
        return int(self.xs.size)


def percentiles(values: Sequence[float], qs: Sequence[float]) -> tuple[float, ...]:
    """The ``qs``-th percentiles (each 0..100) of ``values``, in ``qs`` order.

    One ``np.percentile`` call for all of them: a campaign report asks for
    two per sample list, and the call's fixed cost dominates its small
    lists.  Each value equals a one-``q`` call's.

    Raises
    ------
    ValueError
        For empty input or a q outside [0, 100].
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    for q in qs:
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q!r}")
    return tuple(float(v) for v in np.percentile(np.asarray(values, dtype=float), qs))


def fraction_exceeding(values: Sequence[float], threshold: float) -> float:
    """Fraction of samples strictly above ``threshold``.

    The paper's headline loss numbers are of this form ("43% of the
    streams ... experience more than 0.15% loss").
    """
    if not values:
        return 0.0
    data = np.asarray(values, dtype=float)
    return float((data > threshold).mean())


def fraction_at_most(values: Sequence[float], threshold: float) -> float:
    """Fraction of samples at or below ``threshold``."""
    if not values:
        return 0.0
    data = np.asarray(values, dtype=float)
    return float((data <= threshold).mean())

