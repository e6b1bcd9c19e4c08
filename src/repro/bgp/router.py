"""A BGP speaker with full RIBs and incremental update generation.

The speaker implements the mechanics the paper's setup relies on:

* RFC 4271 decision process with hot-potato IGP tie-break, run over the
  Adj-RIBs-In: a whole inbox is installed, then each touched prefix is
  decided once (:meth:`BgpRouter.process_batch`),
* next-hop-self toward iBGP (as border routers in VNS do),
* standard iBGP re-advertisement rules (eBGP-learned and locally
  originated routes only — which is what *hides* routes once a reflector
  is involved), and
* the "best external" feature: when the overall best route is
  iBGP-learned, the best eBGP-learned route is advertised into iBGP
  anyway, undoing the hidden-routes problem of Sec. 3.2.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable

from repro.bgp.attributes import DEFAULT_LOCAL_PREF, NO_EXPORT, AsPath, Origin, Route
from repro.bgp.decision import DecisionContext, _no_igp_metric, best_external, best_route
from repro.bgp.messages import IgpNotification, Message, Update, Withdraw
from repro.bgp.policy import (
    AcceptAll,
    ExportAll,
    ExportPolicy,
    ImportPolicy,
    strip_ibgp_only_attributes,
)
from repro.bgp.rib import AdjRib, LocRib
from repro.bgp.session import Session, SessionType
from repro.geo.coords import GeoPoint
from repro.net.addressing import Prefix
from repro.perf import counters as perf


class BgpRouter:
    """One BGP speaker.

    Parameters
    ----------
    router_id:
        Unique identifier; doubles as the next-hop value the router writes
        when applying next-hop-self.
    asn:
        The local AS number.
    location:
        Where the router physically sits (used by geo-aware reflectors and
        by the data plane).
    import_policy / export_policy:
        Policy hooks; default accept/export-all.
    igp_metric:
        Metric from this router to a BGP next hop (router id); drives the
        hot-potato tie-break.  Defaults to a flat metric.
    enable_best_external:
        Advertise the best eBGP-learned route into iBGP when the overall
        best is iBGP-learned.
    """

    def __init__(
        self,
        router_id: str,
        asn: int,
        *,
        location: GeoPoint | None = None,
        import_policy: ImportPolicy | None = None,
        export_policy: ExportPolicy | None = None,
        igp_metric: Callable[[str], float] | None = None,
        enable_best_external: bool = False,
    ) -> None:
        self.router_id = router_id
        self.asn = asn
        self.location = location
        self.import_policy = import_policy or AcceptAll()
        self.export_policy = export_policy or ExportAll()
        self.enable_best_external = enable_best_external
        self.sessions: dict[str, Session] = {}
        #: Sessions administratively/operationally down (fault injection);
        #: configuration is retained so the session can come back.
        self.down_sessions: set[str] = set()
        self.adj_rib_in = AdjRib()
        self.adj_rib_out = AdjRib()
        self.loc_rib = LocRib()
        self.originated: dict[Prefix, Route] = {}
        self._ctx = DecisionContext(
            igp_metric=igp_metric or _no_igp_metric, router_id=router_id
        )
        #: Per prefix, the ``(best, iBGP source route)`` outcome Adj-RIB-Out
        #: was last synchronised to; lets :meth:`_decide` skip the
        #: advertisement diff when a message did not change the outcome.
        self._advertised: dict[Prefix, tuple[Route | None, Route | None]] = {}

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #

    def add_session(self, session: Session) -> None:
        """Configure a session toward ``session.peer_id``.

        Raises
        ------
        ValueError
            If a session to that peer already exists.
        """
        if session.peer_id in self.sessions:
            raise ValueError(
                f"{self.router_id} already has a session to {session.peer_id}"
            )
        self.sessions[session.peer_id] = session
        self._advertised.clear()

    def session_to(self, peer_id: str) -> Session:
        """The configured session to ``peer_id``.

        Raises
        ------
        KeyError
            If no session to that peer exists.
        """
        return self.sessions[peer_id]

    def fail_session(
        self, peer_id: str
    ) -> tuple[dict[Prefix, Route], list[Message]]:
        """Take the session to ``peer_id`` down (link/peer failure).

        Every route learned from the peer is invalidated and the decision
        process re-runs for the affected prefixes, exactly as if the peer
        had withdrawn them; state advertised *to* the peer is flushed.
        Returns the dropped Adj-RIB-In snapshot (so a later
        :meth:`restore_session` can replay the peer's table without
        re-modelling the neighbour) and the triggered messages.

        Raises
        ------
        KeyError
            If no session to that peer is configured.
        """
        self.session_to(peer_id)  # validates
        self.down_sessions.add(peer_id)
        snapshot = self.adj_rib_in.drop_peer(peer_id)
        self.adj_rib_out.drop_peer(peer_id)
        self._advertised.clear()
        return snapshot, self._decide_each(snapshot)

    def restore_session(
        self, peer_id: str, routes: dict[Prefix, Route]
    ) -> list[Message]:
        """Bring the session to ``peer_id`` back with the peer's table.

        ``routes`` is typically the snapshot :meth:`fail_session`
        returned (the neighbour re-sends what it had).  The full
        advertisement recomputation also replays this speaker's own table
        toward the restored peer — the initial transfer of session
        re-establishment.

        Raises
        ------
        KeyError
            If no session to that peer is configured.
        """
        self.session_to(peer_id)  # validates
        self.down_sessions.discard(peer_id)
        for route in routes.values():
            self.adj_rib_in.update(peer_id, route)
        return self.refresh_advertisements()

    # ------------------------------------------------------------------ #
    # route origination and message processing
    # ------------------------------------------------------------------ #

    def originate(self, prefix: Prefix, communities: frozenset[str] = frozenset()) -> list[Message]:
        """Originate ``prefix`` locally and return the resulting updates."""
        route = Route(
            prefix=prefix,
            as_path=AsPath(),
            next_hop=self.router_id,
            origin=Origin.IGP,
            local_pref=DEFAULT_LOCAL_PREF,
            communities=communities,
        )
        self.originated[prefix] = route
        self._advertised.pop(prefix, None)
        return self._decide(prefix)

    def withdraw_origination(self, prefix: Prefix) -> list[Message]:
        """Stop originating ``prefix``; return the resulting updates."""
        if prefix in self.originated:
            del self.originated[prefix]
        self._advertised.pop(prefix, None)
        return self._decide(prefix)

    def bulk_receive(self, messages: Collection[Message]) -> None:
        """Install many incoming updates without running the decision process.

        Used for the initial table transfer at session establishment: real
        BGP speakers also defer/batch best-path runs during bulk transfers.
        Call :meth:`refresh_advertisements` afterwards to decide and
        advertise.

        Raises
        ------
        KeyError
            If a message arrives from a peer with no configured session.
        """
        self._install(messages)

    def process(self, message: Message) -> list[Message]:
        """Handle one incoming message: a one-message :meth:`process_batch`."""
        return self.process_batch((message,))

    def process_batch(self, messages: Collection[Message]) -> list[Message]:
        """Handle a whole inbox; return the messages it triggers.

        RFC 4271 section 9.1: the decision process runs over the
        Adj-RIBs-In, not per received UPDATE.  Every message is installed
        first, in arrival order; then each prefix whose candidates (or
        their IGP metrics) changed is decided once, in sorted order, so
        peers hear the winner and none of the intermediate ones.

        Raises
        ------
        KeyError
            If a message arrives from a peer with no configured session;
            nothing of the batch is installed.
        """
        return self._decide_each(self._install(messages))

    def _install(self, messages: Collection[Message]) -> set[Prefix]:
        """Apply ``messages`` to Adj-RIB-In; the prefixes left to re-decide.

        An update that fails loop prevention or import policy implicitly
        withdraws what its sender had announced before, and messages still
        in flight from a session that has failed are dropped.
        """
        for message in messages:  # all or nothing: no half-installed batch
            if not isinstance(message, IgpNotification):
                self.sessions[message.sender]
        touched: set[Prefix] = set()
        for message in messages:
            if isinstance(message, IgpNotification):
                touched |= self._revalidate(message.changed)
                continue
            sender = message.sender
            if sender in self.down_sessions:
                continue  # in flight from a session that has failed
            received = None
            if isinstance(message, Update):
                session = self.sessions[sender]
                if self._acceptable(message.route, session):
                    received = self._import(message.route, session)
            if received is not None:
                self.adj_rib_in.update(sender, received)
            elif self.adj_rib_in.withdraw(sender, message.prefix) is None:
                continue  # nothing was held, nothing to re-decide
            touched.add(message.prefix)
        return touched

    def _revalidate(self, changed: frozenset[str] | None) -> set[Prefix]:
        """The prefixes an :class:`IgpNotification` leaves to re-decide.

        Next-hop tracking: ``changed`` names the next hops whose metric
        from this speaker moved.  Selection reads the IGP only through
        its candidates' next hops, so a prefix with no candidate (learned
        or originated) through one of them keeps its outcome and is not
        visited.  The :attr:`_advertised` memo stays: an IGP event changes
        neither sessions nor policy, so an unchanged ``(best, source)``
        still has nothing to send.  Without a set, SPF moved and the IGP
        did not say where: the whole table, memo dropped, like the BGP
        scanner (:meth:`refresh_advertisements`).
        """
        if changed is None:
            self._advertised.clear()
            return self._table()
        if perf.enabled:
            perf.incr("bgp.nht.notifications")
        if not changed:
            if perf.enabled:
                perf.incr("bgp.nht.empty")
            return set()
        affected = self.adj_rib_in.prefixes_via(changed)
        if self.router_id in changed:
            affected.update(self.originated)
        if perf.enabled:
            perf.incr("bgp.nht.prefixes_affected", len(affected))
        return affected

    def _acceptable(self, route: Route, session: Session) -> bool:
        """Wire-level sanity checks (loop prevention)."""
        if session.is_ebgp and route.as_path.has_loop(self.asn):
            return False
        if session.is_ibgp and route.originator_id == self.router_id:
            return False
        return True

    def _import(self, route: Route, session: Session) -> Route | None:
        """Apply import policy and stamp reception metadata."""
        if session.is_ebgp:
            # LOCAL_PREF is not carried over eBGP.
            route = route.with_local_pref(DEFAULT_LOCAL_PREF)
        imported = self.import_policy.apply(route, session)
        if imported is None:
            return None
        imported = imported.received(
            learned_from=session.peer_id, ebgp=session.is_ebgp
        )
        return self.transform_imported(imported, session)

    def transform_imported(self, route: Route, session: Session) -> Route | None:
        """Hook for subclasses (the geo reflector rewrites LOCAL_PREF here)."""
        return route

    # ------------------------------------------------------------------ #
    # decision and advertisement
    # ------------------------------------------------------------------ #

    def _candidates(self, prefix: Prefix) -> list[Route]:
        candidates = self.adj_rib_in.routes_for(prefix)
        if prefix in self.originated:
            candidates.append(self.originated[prefix])
        return candidates

    def best(self, prefix: Prefix) -> Route | None:
        """The currently selected best route for ``prefix``."""
        return self.loc_rib.best(prefix)

    def _decide(self, prefix: Prefix) -> list[Message]:
        """Re-run selection for ``prefix`` and diff the advertisements.

        Every advertisement is a function of ``(best, iBGP source)`` and
        the session/policy configuration, so when that pair equals the one
        Adj-RIB-Out was last synchronised to there is nothing to send and
        the diff is skipped.  Entry points that re-synchronise Adj-RIB-Out
        (origination, session failure/restore, :meth:`refresh_advertisements`)
        drop the remembered pair first and so always take the full path;
        an IGP event (:meth:`_revalidate`) changes neither and keeps it.
        """
        candidates = self._candidates(prefix)
        best = best_route(candidates, self._ctx)
        if perf.enabled:
            perf.incr("bgp.decide.calls")
        if best is None:
            self.loc_rib.clear(prefix)
            source = None
        else:
            self.loc_rib.set_best(best)
            source = self._ibgp_source(best, candidates)
        if self._advertised.get(prefix) == (best, source):
            if perf.enabled:
                perf.incr("bgp.decide.unchanged")
            return []
        self._advertised[prefix] = (best, source)
        # The iBGP payload is identical for every iBGP session (modulo
        # split horizon / reflection gating), so prepare it once.
        payload, source_peer, from_client = self._ibgp_payload(source)
        messages: list[Message] = []
        for peer_id, session in self.sessions.items():
            if session.is_ebgp:
                desired = None if best is None else self._ebgp_advertisement(session, best)
            else:
                desired = self._ibgp_desired(session, payload, source_peer, from_client)
            self._emit(peer_id, prefix, desired, messages)
        return messages

    def _table(self) -> set[Prefix]:
        """Every prefix this speaker holds a candidate or a best route for."""
        return self.adj_rib_in.prefixes() | set(self.originated) | set(self.loc_rib.prefixes())

    def _decide_each(self, prefixes: Iterable[Prefix]) -> list[Message]:
        """:meth:`_decide` once per prefix, in sorted order."""
        messages: list[Message] = []
        for prefix in sorted(prefixes):
            messages.extend(self._decide(prefix))
        return messages

    def refresh_advertisements(self) -> list[Message]:
        """Recompute every advertisement (e.g. after a policy change)."""
        self._advertised.clear()
        return self._decide_each(self._table())

    def _emit(
        self,
        peer_id: str,
        prefix: Prefix,
        desired: Route | None,
        messages: list[Message],
    ) -> None:
        if peer_id in self.down_sessions:
            return  # nothing crosses a down session
        current = self.adj_rib_out.route(peer_id, prefix)
        if desired is None:
            if current is not None:
                self.adj_rib_out.withdraw(peer_id, prefix)
                messages.append(
                    Withdraw(sender=self.router_id, receiver=peer_id, prefix=prefix)
                )
            return
        if current == desired:
            return
        self.adj_rib_out.update(peer_id, desired)
        messages.append(Update(sender=self.router_id, receiver=peer_id, route=desired))

    def _ebgp_advertisement(self, session: Session, best: Route) -> Route | None:
        if best.learned_from == session.peer_id:
            return None  # split horizon
        if NO_EXPORT in best.communities:
            return None
        exported = self.export_policy.apply(best, session)
        if exported is None:
            return None
        cleaned = strip_ibgp_only_attributes(exported)
        return cleaned.sent(self.router_id, cleaned.as_path.prepend(self.asn))

    def _ibgp_source(self, best: Route, candidates: list[Route]) -> Route | None:
        """Which of its routes this speaker offers into iBGP, if any."""
        if best.ebgp or best.learned_from is None:
            return best
        if self.enable_best_external:
            return best_external(candidates, self._ctx)
        # Standard rule: iBGP-learned routes are not re-advertised into
        # iBGP by an ordinary speaker.  This is the hidden-routes hazard.
        return None

    def _ibgp_payload(self, source: Route | None) -> tuple[Route | None, str | None, bool]:
        """The wire form of :meth:`_ibgp_source`'s route.

        Returns ``(payload, source_peer, from_client)``; ``source_peer``
        drives split horizon and ``from_client`` reflection gating (always
        True for ordinary speakers, which advertise to every iBGP peer).
        """
        if source is None:
            return None, None, True
        # Border routers apply next-hop-self toward iBGP.
        return source.sent(self.router_id), source.learned_from, True

    def _ibgp_desired(
        self,
        session: Session,
        payload: Route | None,
        source_peer: str | None,
        from_client: bool,
    ) -> Route | None:
        """Gate the shared iBGP payload for one session."""
        if payload is None:
            return None
        if source_peer is not None and source_peer == session.peer_id:
            return None  # split horizon
        return self.export_policy.apply(payload, session)

    def __repr__(self) -> str:
        return f"<BgpRouter {self.router_id} AS{self.asn}>"
