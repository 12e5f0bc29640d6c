from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from enclavebroker import Broker
from enclavebroker.identity import SHADOW_PREFIX, Affiliation, GroupKind

ZONES = [
    ("internet", None),
    ("campus", None),
    ("management", None),
    ("protected-vrf", None),
    ("research-subnet", "protected-vrf"),
]


def make_broker(seed: int = 0, *, retention_days: int = 30) -> Broker:
    """A small but complete environment: two projects, both gateways per
    zone, a shared and a dedicated host, and the usual cast of users."""
    b = Broker(seed=seed, retention_days=retention_days)
    for zone, parent in ZONES:
        b.enclave.add_zone(zone, parent)
    b.enclave.add_gateway("gw-research-jump", "jumpbox", "research-subnet", "rdp")
    b.enclave.add_gateway("gw-research-vpn", "vpn", "research-subnet", "vpn")
    b.enclave.add_gateway("gw-vrf-jump", "jumpbox", "protected-vrf", "rdp")
    b.enclave.add_gateway("gw-vrf-vpn", "vpn", "protected-vrf", "vpn")
    b.enclave.add_host("host-a", False, 64, 256)
    b.enclave.add_host("host-b", True, 64, 256)

    b.directory.admins.add("admin1")
    for netid in ("admin1", "stw1", "stw2", "res1", "res2", "res3",
                  "broker1", "vetter1"):
        b.directory.register_user(netid, "member", mfa_secret=f"mfa-{netid}")
    b.directory.create_group("analysts", GroupKind.ROLE)
    b.directory.create_group("vetters", GroupKind.ROLE)
    b.directory.group("vetters").members.add("vetter1")

    b.policy.register_project("admin1", "study", "sensitive", {"stw1"},
                              zone="research-subnet", brokers=["broker1"],
                              proxy_whitelist=["https://provider.example.org"])
    b.policy.register_project("admin1", "atlas", "restricted", {"stw2"},
                              role_rules={"analysts"}, zone="protected-vrf",
                              brokers=["broker1"])
    return b


def authenticate(broker: Broker, netid: str):
    return broker.directory.verify_mfa(netid, f"mfa-{netid}")


def open_rdp(broker: Broker, netid: str = "res1", project: str = "study"):
    """Grant (if needed), authenticate, and open an RDP session."""
    project_obj = broker.policy.get_project(project)
    steward = sorted(project_obj.stewards)[0]
    if not broker.directory.is_member(project_obj.rdp_group, netid):
        broker.policy.grant_access(steward, project, netid, "rdp")
    principal = authenticate(broker, netid)
    return broker.sessions.open_session(principal, project, "rdp", False)


def open_sessions(broker: Broker) -> list:
    """The broker's open sessions in id order."""
    return sorted(broker.sessions._open.values(), key=lambda s: s.id)


def can_read_share(broker: Broker, share_id: str, identity: str) -> bool:
    """The share-ACL check for a real principal or an in-session arbitrary
    user: a direct member of an ACL group, or one mirrored into its shadow."""
    share = broker.enclave.share(share_id)
    return any(broker.directory.is_member(g, identity)
               or broker.directory.is_member(SHADOW_PREFIX + g, identity)
               for g in sorted(share.acl_groups))


def shadow_members(broker: Broker, group_name: str) -> set[str]:
    shadow = broker.directory.group(SHADOW_PREFIX + group_name)
    return set(shadow.members) if shadow else set()


def directory_issues(directory) -> list[str]:
    """Directory consistency pass; returns human-readable issues."""
    issues = []
    for netid in directory.netids():
        user = directory.user(netid)
        if user.affiliation is Affiliation.AFFILIATE:
            sponsor = directory.user(user.sponsor or "")
            if sponsor is None:
                issues.append(f"{netid}: sponsor missing")
            elif sponsor.affiliation is not Affiliation.MEMBER:
                issues.append(f"{netid}: sponsor is not a member")
            elif user.active and not sponsor.active:
                issues.append(f"{netid}: active affiliate with inactive sponsor")
    for name, group in sorted(directory._groups.items()):
        if group.kind is GroupKind.SHADOW:
            continue
        for member in sorted(group.members):
            if not directory.has_user(member):
                issues.append(f"group {name}: member {member} not in directory")
    return issues


@pytest.fixture
def broker() -> Broker:
    return make_broker()
