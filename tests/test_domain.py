"""Domain type invariants."""

import pytest

from freeagent.domain import (
    AccessTier,
    AgentStatus,
    EventKind,
    RosterEvent,
    tier_for_status,
)
from tests.test_pipeline import detector


def test_tier_is_pure_function_of_status():
    assert tier_for_status(AgentStatus.RELEASED) is AccessTier.SANDBOX
    assert tier_for_status(AgentStatus.PROBATIONARY) is AccessTier.RESTRICTED
    assert tier_for_status(AgentStatus.ACTIVE) is AccessTier.FULL


def test_tier_follows_status_assignment():
    agent = detector(0)
    for status in (AgentStatus.PROBATIONARY, AgentStatus.RELEASED, AgentStatus.ACTIVE):
        agent.status = status
        assert agent.access_tier is tier_for_status(status)
    with pytest.raises(AttributeError):
        agent.access_tier = AccessTier.FULL  # derived, never stored


def test_tier_ordering_reflects_privilege():
    assert AccessTier.SANDBOX < AccessTier.RESTRICTED < AccessTier.FULL


def test_event_serialization_field_order():
    event = RosterEvent(cycle=2, kind=EventKind.SIGN, agent=7, detail="x", performance_snapshot=0.5)
    assert list(event.to_dict()) == ["cycle", "kind", "agent", "detail", "performance_snapshot"]
    assert event.to_dict()["kind"] == "Sign"
