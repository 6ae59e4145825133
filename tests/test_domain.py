"""Domain type invariants."""

import pytest

from freeagent.domain import (
    AccessTier,
    AgentStatus,
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
    event = RosterEvent(cycle=2, kind=EventKind.SIGN, agent=7, detail="x", performance_snapshot=0.5)
    assert list(event.to_dict()) == ["cycle", "kind", "agent", "detail", "performance_snapshot"]
    assert event.to_dict()["kind"] == "Sign"
