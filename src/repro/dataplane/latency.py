"""Propagation delay from geography."""

from __future__ import annotations

from repro.dataplane.calibration import FIBER_MS_PER_KM, TRANSIT_PATH_INFLATION


def propagation_delay_ms(
    distance_km: float, inflation: float = TRANSIT_PATH_INFLATION
) -> float:
    """One-way propagation delay over ``distance_km`` of (inflated) fibre.

    Raises
    ------
    ValueError
        For negative distance or inflation below 1.
    """
    if distance_km < 0:
        raise ValueError(f"distance must be non-negative, got {distance_km!r}")
    if inflation < 1.0:
        raise ValueError(f"inflation must be >= 1, got {inflation!r}")
    return distance_km * FIBER_MS_PER_KM * inflation
