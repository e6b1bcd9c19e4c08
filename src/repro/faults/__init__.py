"""Fault injection and failover measurement for the VNS overlay.

The paper's network is engineered for steady-state quality — dedicated
circuits, cold-potato egress, anycast entry.  This subpackage asks what
happens when pieces of it break:

* :mod:`~repro.faults.events` — typed fault events (circuit cut, PoP
  loss, eBGP session flap, transit degradation); a fault timeline is a
  time-sorted tuple of them, here and in ``ScenarioSpec.faults`` alike,
* :mod:`~repro.faults.injector` — applies events to the live network:
  IGP re-runs SPF, border routers withdraw and re-advertise through the
  real BGP machinery, every fault has an exact inverse,
* :mod:`~repro.faults.recovery` — convergence cost, egress churn, the
  blackhole window, and the loss an in-flight media stream eats;
  :func:`run_drill` takes all of them over one :class:`Drill` (a fault
  timeline plus the corridor a stream rides) and is the only code that
  knows the fail → window → repair sequence,
* :mod:`~repro.faults.drills` — the canned drills as data: every
  long-haul cut, whole-PoP failure with anycast re-catchment, correlated
  regional failure, flapping upstream, pure data-plane transit
  degradation.

A *scenario* is :mod:`repro.scenarios`' word (a declared world run under
a campaign); what this package runs is a *drill*.
"""

from repro.faults.events import (
    EVENT_TYPES,
    FaultEvent,
    LinkDown,
    LinkUp,
    PopDown,
    PopUp,
    SessionDown,
    SessionUp,
    SimulatedClock,
    TransitDegrade,
    TransitRestore,
    event_from_dict,
    event_to_dict,
    events_from_json,
    events_to_json,
)
from repro.faults.drills import canned_drills, link_cut, resolve_corridor
from repro.faults.injector import FaultInjector
from repro.faults.recovery import (
    Drill,
    DrillResult,
    EventImpact,
    ImpactMeter,
    MediaImpact,
    RoutingSnapshot,
    failover_window_s,
    measure_event,
    overlay_outage,
    prefix_sample,
    run_drill,
)

__all__ = [
    "EVENT_TYPES",
    "FaultEvent",
    "event_from_dict",
    "event_to_dict",
    "events_from_json",
    "events_to_json",
    "LinkDown",
    "LinkUp",
    "PopDown",
    "PopUp",
    "SessionDown",
    "SessionUp",
    "SimulatedClock",
    "TransitDegrade",
    "TransitRestore",
    "FaultInjector",
    "Drill",
    "DrillResult",
    "EventImpact",
    "ImpactMeter",
    "MediaImpact",
    "RoutingSnapshot",
    "failover_window_s",
    "measure_event",
    "overlay_outage",
    "prefix_sample",
    "run_drill",
    "canned_drills",
    "link_cut",
    "resolve_corridor",
]
