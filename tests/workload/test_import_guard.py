"""A campaign imports nothing it calls once.

``scipy.stats`` costs as much to import as the rest of ``repro``
together (~0.5 s, +44 MiB, in every process that simulates a stream) and
the kernel's one use of it — binomial quantiles — is computed in-house.
Nor does a campaign load the media plane (``repro.media``: codecs, SIP,
RTP, TURN): it counts its TURN-relayed legs rather than keeping a relay
ledger.  Checked in a fresh interpreter, because this test process has
long since imported both (the quantile's own tests compare against
``binom.ppf``).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROGRAM = """
import sys
import repro.workload
from repro.experiments.common import build_world
from repro.workload import CallArrivalProcess, CampaignConfig, CampaignEngine, UserPopulation

world = build_world("small", seed=42)
population = UserPopulation.sample(world.topology, 60, seed=5)
calls = CallArrivalProcess(population, calls_per_user_day=4.0, seed=6).generate(days=1)[:200]
run = CampaignEngine(world.service, CampaignConfig(seed=7)).run(calls)
assert len(calls) == 200 and run.report.n_calls > 0 and len(run.results[0].via_vns.slot_losses)
print(
    "scipy.special" in sys.modules,
    "scipy.stats" in sys.modules,
    any(name.startswith("repro.media") for name in sys.modules),
)
"""


def test_a_campaign_never_imports_scipy_stats():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False", "False"]
