"""A message engine driving a set of BGP speakers to convergence.

Pending messages sit in one inbox per receiver.  :meth:`BgpEngine.run`
converges **by speaker**: receivers are served in the order their oldest
pending message arrived, and a turn hands the speaker its whole inbox to
install and then decide once per touched prefix — a speaker drains its
input queue, it does not advertise every intermediate winner.
:meth:`BgpEngine.step` delivers the single oldest message: tests construct
exact arrival orders with it (the hidden-routes pathology of Sec. 3.2 only
bites when the reflector hears the farther egress first), and it is the
oracle ``run`` must agree with, state for state (DESIGN.md section 10).

Messages addressed to identifiers with no registered router — external
eBGP neighbours — are collected in :attr:`BgpEngine.external_outbox`, so a
simulation can inspect exactly what the AS announces to the outside.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from collections.abc import Iterable
from heapq import heappop, heappush
from itertools import chain

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
        #: Receiver -> its pending ``(arrival number, message)`` pairs
        #: (never empty), and a heap of ``(oldest arrival, receiver)``.
        self._inboxes: dict[str, deque[tuple[int, Message]]] = {}
        self._oldest: list[tuple[int, str]] = []
        self._arrivals = 0
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
            messages = (messages,)
        elif not isinstance(messages, Iterable) or isinstance(messages, str):
            raise TypeError(
                f"inject() takes a Message or an iterable of them, got {messages!r}"
            )
        for message in messages:
            self._arrivals += 1
            inbox = self._inboxes.get(message.receiver)
            if inbox is None:
                inbox = self._inboxes[message.receiver] = deque()
                heappush(self._oldest, (self._arrivals, message.receiver))
            inbox.append((self._arrivals, message))

    @property
    def queue(self) -> list[Message]:
        """The pending messages in arrival order: a sorted copy, for inspection."""
        return [message for _, message in sorted(chain(*self._inboxes.values()))]

    @property
    def converged(self) -> bool:
        """True when no messages are in flight."""
        return not self._inboxes

    def _turn(self, limit: int) -> int:
        """Deliver up to ``limit`` messages of the oldest inbox, as one batch."""
        receiver = heappop(self._oldest)[1]
        inbox = self._inboxes[receiver]
        if limit >= len(inbox):
            del self._inboxes[receiver]
            batch = [message for _, message in inbox]
        else:
            batch = [inbox.popleft()[1] for _ in range(limit)]
            heappush(self._oldest, (inbox[0][0], receiver))
        self.delivered += len(batch)
        self.last_delivered = batch[-1]
        router = self.routers.get(receiver)
        if router is None:
            self.external_outbox.extend(batch)
        else:
            self.inject(router.process_batch(batch))
        return len(batch)

    def step(self) -> bool:
        """Deliver the single oldest message; return False if none is pending."""
        if not self._inboxes:
            return False
        self._turn(1)
        return True

    def run(self, max_messages: int = 5_000_000) -> int:
        """Deliver messages until convergence; return the count delivered.

        The budget is exact: at most ``max_messages`` messages are
        delivered by this call (the last inbox is cut at the budget), and
        the error (if any) is raised with the budget fully spent but never
        overdrawn.

        Raises
        ------
        ConvergenceError
            If messages are still pending after ``max_messages``
            deliveries, which for this policy-stable configuration
            indicates a bug, not MED oscillation.
        """
        start = time.perf_counter() if perf.enabled else 0.0
        count = 0
        while self._inboxes:
            if count >= max_messages:
                depths = self.pending_by_receiver()
                deepest = ", ".join(
                    f"{receiver}:{depth}"
                    for receiver, depth in list(depths.items())[:5]
                )
                pending = sum(depths.values())
                raise ConvergenceError(
                    f"no convergence after {max_messages} messages"
                    f" ({pending} still pending; deepest queues"
                    f" [{deepest}]; last delivered: {self.last_delivered})",
                    delivered=count,
                    total_delivered=self.delivered,
                    pending=pending,
                    queue_depths=depths,
                    last_message=self.last_delivered,
                )
            count += self._turn(max_messages - count)
        if perf.enabled:
            perf.add_time("bgp.engine.run", time.perf_counter() - start)
            perf.incr("bgp.engine.delivered", count)
        return count

    def pending_by_receiver(self) -> dict[str, int]:
        """Pending-message count per receiver, deepest queues first."""
        depths = {receiver: len(inbox) for receiver, inbox in self._inboxes.items()}
        return dict(Counter(depths).most_common())
