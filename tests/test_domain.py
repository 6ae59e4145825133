"""Domain type invariants."""

import json

import pytest

from freeagent.domain import (
    Agent,
    AgentStatus,
    ConfigError,
    EventKind,
    RosterEvent,
)
from freeagent.engine import event_line
from tests.test_pipeline import detector


def test_event_serialization_field_order():
    # an events.jsonl line holds the event's fields in order
    event = RosterEvent(cycle=2, kind=EventKind.SIGN, agent=7, detail="x", performance_snapshot=0.5)
    line = json.loads(event_line(event))
    assert list(line) == ["cycle", "kind", "agent", "detail", "performance_snapshot"]
    assert line == {"cycle": 2, "kind": "Sign", "agent": 7, "detail": "x",
                    "performance_snapshot": 0.5}


@pytest.mark.parametrize("field,value", [
    ("id", -1), ("service_time", -1), ("consecutive_below", -2),
    ("performance", 1.5), ("performance", -0.5),
])
def test_agent_refuses_out_of_range_state_naming_the_field(field, value):
    # a snapshot's agent entries are read through these checks
    state = {"id": 0, "status": AgentStatus.ACTIVE, "gate_weights": (1.0,), field: value}
    with pytest.raises(ConfigError) as exc:
        Agent(spec=detector(0).spec, **state)
    assert exc.value.at == field
