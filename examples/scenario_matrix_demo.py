#!/usr/bin/env python3
"""Declarative scenarios and the scenario matrix.

A scenario is a frozen, JSON-round-trippable spec: which world, what
arrival profile, which faults, which last-mile model, which steering
policy.  This demo

1. prints a canned spec's JSON (the committed-file format),
2. runs one scenario end to end (faults applied through the real BGP
   machinery, impairments applied at simulate time, world restored),
3. runs a (scenario x seed) matrix, writes golden reports to a temp
   dir, perturbs one, and shows the regression diff the golden gate
   produces.

Run:
    python examples/scenario_matrix_demo.py
"""

from __future__ import annotations

import tempfile
from dataclasses import replace

from repro.scenarios import (
    GoldenStore,
    canned_names,
    canned_scenario,
    run_matrix,
    run_scenario,
)


def main() -> None:
    print("Canned scenarios:", ", ".join(canned_names()))
    spec = canned_scenario("regional_outage")
    print("\nThe committed-file format (regional_outage):")
    print(spec.to_json())

    # --- one scenario end to end -------------------------------------
    small = replace(spec, n_users=60, calls_per_user_day=2.0)
    print("\nRunning regional_outage (faults applied, then rolled back)...")
    run = run_scenario(small)
    print(
        f"  {run.stats.calls_resolved} calls resolved, "
        f"{run.stats.calls_failed} unroutable"
    )

    # --- the matrix, with a golden gate -------------------------------
    grid = [
        replace(canned_scenario(name), n_users=60, calls_per_user_day=2.0)
        for name in ("baseline", "geo_satellite", "pop_exhaustion")
    ]
    with tempfile.TemporaryDirectory() as tmp:
        store = GoldenStore(tmp)
        print(f"\nMatrix: {len(grid)} scenarios x 2 seeds...")
        result = run_matrix(
            grid,
            seeds=(0, 1),
            golden=store,
            update_golden=True,  # first run commits the goldens
        )
        print(result.render())

        # Perturb one committed golden: the gate must catch it.
        key = result.cells[0].key
        golden = store.load(key)
        pair = next(iter(golden["pairs"]))
        golden["pairs"][pair]["vns"]["delay_ms"]["p50"] *= 1.5
        store.save(key, golden)
        print(f"\nPerturbed {key}'s golden by +50% on one QoE float; re-checking...")
        recheck = run_matrix(grid, seeds=(0, 1), golden=store)
        for cell in recheck.regressions():
            print(cell.golden.render())


if __name__ == "__main__":
    main()
