"""Shared value types: zone ids, access modes, classification tiers, and decisions."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

INTERNET = "internet"
CAMPUS = "campus"
PROTECTED_VRF = "protected-vrf"
RESEARCH_SUBNET = "research-subnet"
MANAGEMENT = "management"

ZONE_IDS = (INTERNET, CAMPUS, PROTECTED_VRF, RESEARCH_SUBNET, MANAGEMENT)
ENCLAVE_ZONES = frozenset({PROTECTED_VRF, RESEARCH_SUBNET})


class AccessMode(str, Enum):
    """How a user reaches the enclave; grants for the two modes are independent."""

    VPN = "vpn"
    RDP = "rdp"


class Tier(str, Enum):
    """Three-tier data classification, ordered by restrictiveness."""

    PUBLIC = "public"
    RESTRICTED = "restricted"
    SENSITIVE = "sensitive"


class Verdict(str, Enum):
    ALLOW = "allow"
    DENY = "deny"


@dataclass
class Decision:
    """An allow/deny verdict; ``reason`` always names the rule that fired."""

    verdict: Verdict
    reason: str
    path: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.reason:
            raise ValueError("decision reason must name a rule")

    @property
    def allowed(self) -> bool:
        return self.verdict is Verdict.ALLOW

    def to_wire(self) -> dict:
        return {"verdict": self.verdict.value, "reason": self.reason, "path": list(self.path)}


def allow(reason: str, path: list[str] | None = None) -> Decision:
    return Decision(Verdict.ALLOW, reason, path or [])


def deny(reason: str) -> Decision:
    return Decision(Verdict.DENY, reason, [])
