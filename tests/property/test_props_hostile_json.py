"""Property: hostile fault-event and scenario JSON ends in a ``ValueError``.

Start from valid event and spec JSON and damage it once — replace a
value (anywhere in the document) with a string, a number (NaN and the
infinities included), a negative number, a bool, a list or ``null``;
drop a key or an array item; add a key.  The parser must either accept
the result as a value that round-trips exactly (and describes itself),
or raise ``ValueError``.  A ``TypeError``, ``KeyError`` or ``IndexError``
— or an accepted value that fails later — is a bug.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.events import (
    LinkDown,
    LinkUp,
    PopDown,
    PopUp,
    SessionDown,
    SessionUp,
    TransitDegrade,
    TransitRestore,
    events_from_json,
    events_to_json,
)
from repro.scenarios.spec import ScenarioSpec, WorldSpec

EVENTS = (
    LinkDown(time_s=10.0, a="LON", b="ASH"),
    LinkUp(time_s=30.0, a="LON", b="ASH"),
    PopDown(time_s=5.0, pop="SIN"),
    PopUp(time_s=50.0, pop="SIN"),
    SessionDown(time_s=1.0, asn=64512, router_id="r1.lon"),
    SessionUp(time_s=9.0, asn=64512),
    TransitDegrade(
        time_s=0.0, regions=("Europe", "Africa"), extra_loss=0.05, extra_delay_ms=40.0
    ),
    TransitRestore(time_s=600.0, regions=("Europe", "Africa")),
)

SPEC = ScenarioSpec(
    name="hostile",
    world=WorldSpec(pops_down=("SIN",), pop_capacity=(("LON", 2.0), ("*", 0.5))),
    seed=3,
    arrival_profile="flash_crowd",
    steering_policy="threshold_offload",
    last_mile="geo_satellite",
    faults=EVENTS,
    description="every field set",
)

replacements = st.one_of(
    st.text(max_size=6),
    st.floats(),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-9),
    st.booleans(),
    st.lists(st.one_of(st.integers(-3, 3), st.text(max_size=3)), max_size=3),
    st.none(),
)


def slots(node, out):
    """Every (container, key) in ``node``: dict keys and list indices."""
    if isinstance(node, dict):
        for key, value in node.items():
            out.append((node, key))
            slots(value, out)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            out.append((node, index))
            slots(value, out)
    return out


@st.composite
def damaged(draw, valid_text):
    """``valid_text`` with one value replaced, one key dropped or one added."""
    document = json.loads(valid_text)
    targets = [(None, None), *slots(document, [])]
    container, key = draw(st.sampled_from(targets))
    action = draw(st.sampled_from(["replace", "drop", "add"]))
    if container is None:  # the document itself
        document = draw(replacements)
    elif action == "replace":
        container[key] = draw(replacements)
    elif action == "drop":
        del container[key]
    elif isinstance(container, dict):
        container[draw(st.text(max_size=8))] = draw(replacements)
    else:
        container.insert(key, draw(replacements))
    return json.dumps(document)


@given(damaged(events_to_json(EVENTS)))
@settings(max_examples=400, deadline=None)
def test_damaged_event_json_round_trips_or_raises_value_error(text):
    try:
        events = events_from_json(text)
    except ValueError:
        return
    assert events_from_json(events_to_json(events)) == events
    for event in events:
        event.describe()


@given(damaged(SPEC.to_json()))
@settings(max_examples=400, deadline=None)
def test_damaged_spec_json_round_trips_or_raises_value_error(text):
    try:
        spec = ScenarioSpec.from_json(text)
    except ValueError:
        return
    assert ScenarioSpec.from_json(spec.to_json()) == spec
    assert spec.to_json() == ScenarioSpec.from_json(spec.to_json()).to_json()
    hash(spec)
    for event in spec.faults:
        event.describe()
