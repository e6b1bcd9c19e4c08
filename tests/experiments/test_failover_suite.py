"""The failover suite's output, pinned byte for byte.

The digests below were recorded on the hand-written scenario functions
(the commit that adds this file changes nothing else) and are the gate
for every later rewrite of the failover path: ``to_json()``, ``render()``
and each block's event log must not move by a byte.
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
        "643023177de4e3225abf03a2978d2814f3738ad34eac686a5a319446a9392c5f",
        "fe67b1e41c7fcb24eb328c40669f73f3fcfd1726ee198b15a8574ea644d991bb",
    ),
    (
        7,
        "cf4ae0755114d4107530328a46f404a526ab20d9c583d4eaa16965942d2a10e8",
        "e158f7c1a09864664e2aaef5abbb129b639540dd980aa00af25d5bcf90aa0917",
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


@pytest.mark.parametrize("seed, json_digest, full_digest", PINNED)
def test_suite_output_is_pinned_and_leaves_the_world_as_found(
    seed, json_digest, full_digest
):
    world = build_world("small", seed=seed)
    first = digests(failover.run(world))
    assert first == (json_digest, full_digest)
    # Every block repaired what it broke: a second run on the same world
    # (fresh experiment rng, same service) is byte-identical.
    assert digests(failover.run(world)) == first
