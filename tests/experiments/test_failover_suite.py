"""The failover suite's output, pinned byte for byte.

The digests below are the gate for every rewrite of the failover path:
``to_json()``, ``render()`` and each block's event log must not move by a
byte.  First recorded on the hand-written scenario functions; re-recorded
once, when ``BgpEngine.run`` began serving whole inboxes: the suite's
message counts (``pop-failure:SIN``) and the window seconds derived from
them moved, nothing else (the commit that re-pins lists every JSON key).
"""

import hashlib

import pytest

from repro.experiments import failover
from repro.experiments.common import build_world

#: (seed, sha256 of ``to_json()``, sha256 of ``to_json()`` + ``render()``
#: + every event-log line) of ``failover.run`` on a SMALL world.
PINNED = [
    (
        42,
        "f0ae00f11e215fcb05563a5d9aa103c0dd365ab907de6b108eb68dad9967b96d",
        "142e8ac6e10b5b5b51f7b5cb23079a7fba442e2bc7c69d4d4086a485aa5bccf2",
    ),
    (
        7,
        "dddaf6790ba5de0c06de527e1e781713c295d8d1f37550300840379c64005b32",
        "a4067dd7d04c55f91b45c4f399153cbd684a5f397a2fcf8e23ae44d08ad114fd",
    ),
]


def digests(result: failover.FailoverResult) -> tuple[str, str]:
    as_json = result.to_json()
    everything = "\n".join(
        [as_json, result.render()]
        + [line for block in result.drills for line in block.event_log]
    )
    return (
        hashlib.sha256(as_json.encode()).hexdigest(),
        hashlib.sha256(everything.encode()).hexdigest(),
    )


# Ids name the seed, not the digest: a re-pin does not rename the test.
@pytest.mark.parametrize(
    "seed, json_digest, full_digest",
    PINNED,
    ids=[f"{seed}-canned-drills" for seed, _, _ in PINNED],
)
def test_suite_output_is_pinned_and_leaves_the_world_as_found(
    seed, json_digest, full_digest
):
    world = build_world("small", seed=seed)
    first = digests(failover.run(world))
    assert first == (json_digest, full_digest)
    # Every block repaired what it broke: a second run on the same world
    # (fresh experiment rng, same service) is byte-identical.
    assert digests(failover.run(world)) == first
