"""A message engine driving a set of BGP speakers to convergence.

Delivery is FIFO by default, which makes runs deterministic and lets tests
construct the exact arrival orders that expose order-dependent behaviour
(the hidden-routes pathology of Sec. 3.2 only bites when the reflector
hears the farther egress first).

Messages addressed to identifiers with no registered router — external
eBGP neighbours — are collected in :attr:`BgpEngine.external_outbox`, so a
simulation can inspect exactly what the AS announces to the outside.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from collections.abc import Iterable

from repro.bgp.messages import Message
from repro.bgp.router import BgpRouter
from repro.perf import counters as perf


class ConvergenceError(RuntimeError):
    """Raised when the engine exhausts its message budget.

    Carries a snapshot of the engine state so a non-converging fault
    scenario can be debugged from the exception alone:

    Attributes
    ----------
    delivered:
        Messages delivered by the failing :meth:`BgpEngine.run` call
        (always exactly the ``max_messages`` budget).
    total_delivered:
        The engine's cumulative delivery count over its whole lifetime
        (:attr:`BgpEngine.delivered`), across all ``run`` calls.
    pending:
        Messages still queued.
    queue_depths:
        Pending-message count per receiver, deepest queues first.
    last_message:
        The last message delivered (``None`` if none were).
    """

    def __init__(
        self,
        message: str,
        *,
        delivered: int = 0,
        total_delivered: int = 0,
        pending: int = 0,
        queue_depths: dict[str, int] | None = None,
        last_message: Message | None = None,
    ) -> None:
        super().__init__(message)
        self.delivered = delivered
        self.total_delivered = total_delivered
        self.pending = pending
        self.queue_depths = dict(queue_depths or {})
        self.last_message = last_message


class BgpEngine:
    """Holds routers, queues messages, and runs to convergence."""

    def __init__(self) -> None:
        self.routers: dict[str, BgpRouter] = {}
        self.queue: deque[Message] = deque()
        self.external_outbox: list[Message] = []
        self.delivered = 0
        self.last_delivered: Message | None = None

    def add_router(self, router: BgpRouter) -> None:
        """Register a router.

        Raises
        ------
        ValueError
            If a router with the same id is already registered.
        """
        if router.router_id in self.routers:
            raise ValueError(f"duplicate router id {router.router_id!r}")
        self.routers[router.router_id] = router

    def router(self, router_id: str) -> BgpRouter:
        """Look up a registered router.

        Raises
        ------
        KeyError
            For an unknown id.
        """
        return self.routers[router_id]

    def inject(self, messages: Iterable[Message] | Message) -> None:
        """Queue messages for delivery (e.g. eBGP updates from outside).

        Raises
        ------
        TypeError
            For anything that is neither a message nor an iterable of them.
        """
        if isinstance(messages, Message):
            self.queue.append(messages)
        elif isinstance(messages, Iterable) and not isinstance(messages, str):
            self.queue.extend(messages)
        else:
            raise TypeError(
                f"inject() takes a Message or an iterable of them, got {messages!r}"
            )

    @property
    def converged(self) -> bool:
        """True when no messages are in flight."""
        return not self.queue

    def step(self) -> bool:
        """Deliver one message; return False if the queue was empty."""
        if not self.queue:
            return False
        message = self.queue.popleft()
        self.delivered += 1
        self.last_delivered = message
        receiver = self.routers.get(message.receiver)
        if receiver is None:
            self.external_outbox.append(message)
            return True
        produced = receiver.process(message)
        self.queue.extend(produced)
        return True

    def run(self, max_messages: int = 5_000_000) -> int:
        """Deliver messages until convergence; return the count delivered.

        The budget is exact: at most ``max_messages`` messages are
        delivered by this call, and the error (if any) is raised with the
        budget fully spent but never overdrawn.

        Raises
        ------
        ConvergenceError
            If the queue is still non-empty after ``max_messages``
            deliveries, which for this policy-stable configuration
            indicates a bug, not MED oscillation.
        """
        start = time.perf_counter() if perf.enabled else 0.0
        count = 0
        while self.queue:
            if count >= max_messages:
                depths = self.pending_by_receiver()
                deepest = ", ".join(
                    f"{receiver}:{depth}"
                    for receiver, depth in list(depths.items())[:5]
                )
                raise ConvergenceError(
                    f"no convergence after {max_messages} messages"
                    f" ({len(self.queue)} still pending; deepest queues"
                    f" [{deepest}]; last delivered: {self.last_delivered})",
                    delivered=count,
                    total_delivered=self.delivered,
                    pending=len(self.queue),
                    queue_depths=depths,
                    last_message=self.last_delivered,
                )
            self.step()
            count += 1
        if perf.enabled:
            perf.add_time("bgp.engine.run", time.perf_counter() - start)
            perf.incr("bgp.engine.delivered", count)
        return count

    def pending_by_receiver(self) -> dict[str, int]:
        """Pending-message count per receiver, deepest queues first."""
        return dict(Counter(m.receiver for m in self.queue).most_common())
