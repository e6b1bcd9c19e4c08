"""A process imports nothing it does not call.

``scipy.stats`` costs as much to import as the rest of ``repro``
together (~0.5 s, +44 MiB, in every process that simulates a stream) and
the kernel's one use of it — binomial quantiles — is computed in-house.
Nor does a campaign load the media plane (``repro.media``: codecs, SIP,
RTP, TURN): it counts its TURN-relayed legs rather than keeping a relay
ledger.  A process that never simulates a stream — a world build, a
fault, an egress query — loads no scipy at all: the kernel imports
``scipy.special`` at its first call (~0.3 s, ~21 MiB), and without scipy
that call is an ``ImportError``, not a substitute kernel.  Checked in fresh
interpreters, because this test process has long since imported all of
it (the quantile's own tests compare against ``binom.ppf``).
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

WORLD_ONLY = """
import sys
import repro.faults
import repro.results
import repro.workload
from repro.experiments.common import build_world
from repro.faults import FaultInjector, SessionDown, SessionUp

service = build_world("small", seed=42).service
asn = service.deployment.upstreams[0]
injector = FaultInjector(service)
assert injector.apply(SessionDown(time_s=0.0, asn=asn)) > 0
assert injector.apply(SessionUp(time_s=1.0, asn=asn)) > 0
prefix = sorted(service.topology.prefixes())[0]
assert service.egress_decision(service.pops()[0].code, prefix) is not None
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""

#: A world builds without scipy; the first stream simulated needs it.
MISSING_SCIPY = """
import sys
sys.modules["scipy"] = None  # as if scipy were not installed
from repro.experiments.common import build_world
from repro.workload import CallArrivalProcess, CampaignConfig, CampaignEngine, UserPopulation

world = build_world("small", seed=42)
population = UserPopulation.sample(world.topology, 20, seed=5)
calls = CallArrivalProcess(population, calls_per_user_day=2.0, seed=6).generate(days=1)
try:
    CampaignEngine(world.service, CampaignConfig(seed=7)).run(calls)
except ImportError as error:
    print("scipy" in str(error))
"""


def run_fresh(program: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_a_campaign_never_imports_scipy_stats():
    assert run_fresh(PROGRAM) == ["True", "False", "False"]


def test_a_world_only_process_never_imports_scipy():
    assert run_fresh(WORLD_ONLY) == ["[]"]


def test_a_missing_scipy_fails_at_the_first_stream():
    assert run_fresh(MISSING_SCIPY) == ["True"]
