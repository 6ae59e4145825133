"""Domain type invariants."""

import pytest

from freeagent.config import to_dict
from freeagent.domain import (
    AccessTier,
    Agent,
    AgentStatus,
    ConfigError,
    EventKind,
    RosterEvent,
)
from tests.test_pipeline import detector


def test_tier_is_pure_function_of_status():
    assert detector(0, status=AgentStatus.RELEASED).access_tier is AccessTier.SANDBOX
    assert detector(0, status=AgentStatus.PROBATIONARY).access_tier is AccessTier.RESTRICTED
    assert detector(0, status=AgentStatus.ACTIVE).access_tier is AccessTier.FULL


def test_tier_follows_status_assignment():
    agent = detector(0)
    tiers = {AgentStatus.PROBATIONARY: AccessTier.RESTRICTED,
             AgentStatus.RELEASED: AccessTier.SANDBOX, AgentStatus.ACTIVE: AccessTier.FULL}
    for status, tier in tiers.items():
        agent.status = status
        assert agent.access_tier is tier
    with pytest.raises(AttributeError):
        agent.access_tier = AccessTier.FULL  # derived, never stored


def test_tier_ordering_reflects_privilege():
    assert AccessTier.SANDBOX < AccessTier.RESTRICTED < AccessTier.FULL


def test_event_serialization_field_order():
    # an events.jsonl row is the schema dump of its event
    event = RosterEvent(cycle=2, kind=EventKind.SIGN, agent=7, detail="x", performance_snapshot=0.5)
    assert list(to_dict(event)) == ["cycle", "kind", "agent", "detail", "performance_snapshot"]
    assert to_dict(event)["kind"] == "Sign"


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
