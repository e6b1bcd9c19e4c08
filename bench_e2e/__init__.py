"""The repo's end-to-end benchmark (see ``bench_e2e/README.md``).

Four workloads — cold process to recorded report, a steady campaign day,
fault churn, a sharded day — measured from outside the program: every
layer of ``src/repro`` is timed by spans this package records around
calls into the layer's public functions.  ``BENCHMARK.json`` at the repo
root names the metrics, units, directions and regression bounds.

Run ``python -m bench_e2e run --workload <name>`` from the repo root.
"""
