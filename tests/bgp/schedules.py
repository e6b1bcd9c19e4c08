"""Test-side delivery schedules: any order real BGP permits.

``BgpEngine.run`` is one documented schedule (whole inboxes, oldest
pending message first) and ``BgpEngine.step`` another (one message at a
time, oldest first).  :func:`drain` converges an engine under *any*
schedule that keeps what TCP sessions keep — each receiver hears its
messages in arrival order — without a hook in the engine: it empties the
engine's inboxes and owns the pending set itself.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from repro.bgp.engine import BgpEngine, ConvergenceError
from repro.bgp.messages import Message

#: Given every non-empty inbox, pick ``(receiver, how many of its oldest
#: messages to hand over as one batch)``.
Pick = Callable[[dict[str, list[Message]]], tuple[str, int]]


def drain(engine: BgpEngine, pick: Pick, max_messages: int = 400_000) -> int:
    """Converge ``engine`` serving inboxes as ``pick`` says; messages delivered.

    Raises :class:`~repro.bgp.engine.ConvergenceError` past ``max_messages``.
    """
    pending: dict[str, list[Message]] = {}

    def absorb(messages) -> None:
        for message in messages:
            pending.setdefault(message.receiver, []).append(message)

    absorb(engine.queue)
    engine._inboxes.clear()
    engine._oldest.clear()
    delivered = 0
    while pending:
        receiver, count = pick(pending)
        inbox = pending.pop(receiver)
        batch, rest = inbox[:count], inbox[count:]
        assert batch, (receiver, count)
        if rest:
            pending[receiver] = rest  # re-queued behind the others
        delivered += len(batch)
        if delivered > max_messages:
            raise ConvergenceError(f"no convergence after {max_messages} messages")
        router = engine.routers.get(receiver)
        if router is None:
            engine.external_outbox.extend(batch)
        else:
            absorb(router.process_batch(batch))
    return delivered


def drawn(seed: int) -> Pick:
    """A random receiver and a random split of its inbox, from ``seed``."""
    rng = random.Random(seed)

    def pick(pending):
        receiver = rng.choice(sorted(pending))
        return receiver, rng.randint(1, len(pending[receiver]))

    return pick


def round_robin(share: Callable[[int], int]) -> Pick:
    """Receivers take turns in name order; each gets ``share(len(inbox))``."""
    last = ""

    def pick(pending):
        nonlocal last
        last = min((name for name in pending if name > last), default=min(pending))
        return last, share(len(pending[last]))

    return pick


def whole_inboxes() -> Pick:
    """Round-robin by name, the whole inbox each turn."""
    return round_robin(lambda depth: depth)


def half_inboxes() -> Pick:
    """Round-robin by name, the older half of the inbox each turn."""
    return round_robin(lambda depth: max(1, depth // 2))
