"""Identity directory: principals, affiliates, groups, federation, MFA.

This is the authentication substrate every other module consults. All
mutations serialize through the owning broker; reads are plain lookups.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass, field
from enum import Enum

from .clock import SimClock
from .errors import (
    AssertionExpired,
    BadRequest,
    DuplicateId,
    DuplicateNetid,
    InvalidSponsor,
    MfaFailed,
    MfaRequired,
    MissingSponsor,
    ShadowGroupImmutable,
    Unauthorized,
    UnknownUser,
    UnmappedSubject,
    UntrustedIssuer,
)
from .ledger import AuditLedger

SHADOW_PREFIX = "shadow:"


class Affiliation(str, Enum):
    MEMBER = "member"
    AFFILIATE = "affiliate"


class GroupKind(str, Enum):
    ACCESS_VPN = "access-vpn"
    ACCESS_RDP = "access-rdp"
    ROLE = "role"
    SHADOW = "shadow"


class AuthMethod(str, Enum):
    LOCAL = "local"
    FEDERATED = "federated"


@dataclass
class RealPersistentUser:
    netid: str
    affiliation: Affiliation
    sponsor: str | None = None
    active: bool = True


@dataclass
class Group:
    name: str
    kind: GroupKind
    members: set[str] = field(default_factory=set)
    owning_project: str | None = None


@dataclass(frozen=True)
class FederatedAssertion:
    issuer: str
    subject: str
    issued_at: int
    expires_at: int
    mfa_satisfied: bool
    attributes: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.expires_at <= self.issued_at:
            raise BadRequest("assertion must expire after issuance")


@dataclass
class AuthenticatedPrincipal:
    netid: str
    method: AuthMethod
    mfa_passed: bool

    def to_wire(self) -> dict:
        return {"netid": self.netid, "method": self.method.value,
                "mfa_passed": self.mfa_passed}


class Directory:
    """Users, groups, trusted issuers, and the MFA factor store."""

    def __init__(self, ledger: AuditLedger, clock: SimClock):
        self._ledger = ledger
        self._clock = clock
        self._users: dict[str, RealPersistentUser] = {}
        self._groups: dict[str, Group] = {}
        self._mfa_secrets: dict[str, str] = {}
        self.admins: set[str] = set()
        self.trusted_issuers: set[str] = set()
        self._subject_map: dict[str, dict[str, str]] = {}

    # -- users ---------------------------------------------------------------

    def register_user(self, netid: str, affiliation: Affiliation,
                      sponsor: str | None = None, *, mfa_secret: str | None = None,
                      actor: str = "broker") -> RealPersistentUser:
        if netid in self._users:
            raise DuplicateNetid(netid)
        affiliation = Affiliation(affiliation)
        if affiliation is Affiliation.AFFILIATE:
            if not sponsor:
                raise MissingSponsor(f"affiliate {netid} needs a sponsor")
            holder = self._users.get(sponsor)
            if holder is None or not holder.active or holder.affiliation is not Affiliation.MEMBER:
                raise InvalidSponsor(f"{sponsor} cannot sponsor {netid}")
        else:
            sponsor = None
        user = RealPersistentUser(netid=netid, affiliation=affiliation, sponsor=sponsor)
        self._users[netid] = user
        if mfa_secret is not None:
            self._mfa_secrets[netid] = mfa_secret
        self._ledger.append(actor, "register", netid, {
            "netid": netid,
            "affiliation": affiliation.value,
            "sponsor": sponsor or "",
        })
        return user

    def deactivate_user(self, actor: str, netid: str) -> list[str]:
        """Deactivate a user; sponsored affiliates cascade immediately."""
        self.require_admin(actor)
        user = self._require_user(netid)
        deactivated = [netid]
        user.active = False
        self._ledger.append(actor, "deactivate", netid, {"netid": netid})
        if user.affiliation is Affiliation.MEMBER:
            for other in sorted(self._users):
                candidate = self._users[other]
                if candidate.sponsor == netid and candidate.active:
                    candidate.active = False
                    deactivated.append(other)
                    self._ledger.append(actor, "deactivate", other,
                                        {"netid": other, "cause": "sponsor-inactive"})
        return deactivated

    def user(self, netid: str) -> RealPersistentUser | None:
        return self._users.get(netid)

    def has_user(self, netid: str) -> bool:
        return netid in self._users

    def netids(self) -> list[str]:
        return sorted(self._users)

    def is_admin(self, netid: str) -> bool:
        return netid in self.admins

    def require_admin(self, actor: str) -> None:
        if actor not in self.admins:
            raise Unauthorized(f"{actor} is not a platform administrator")

    def _require_user(self, netid: str) -> RealPersistentUser:
        user = self._users.get(netid)
        if user is None:
            raise UnknownUser(netid)
        return user

    # -- federation ------------------------------------------------------------

    def add_trusted_issuer(self, issuer: str) -> None:
        self.trusted_issuers.add(issuer)

    def map_subject(self, issuer: str, subject: str, netid: str) -> None:
        self._subject_map.setdefault(issuer, {})[subject] = netid

    def assert_federated(self, assertion: FederatedAssertion) -> AuthenticatedPrincipal:
        now = self._clock.now
        if assertion.issuer not in self.trusted_issuers:
            raise UntrustedIssuer(assertion.issuer)
        if not (assertion.issued_at <= now <= assertion.expires_at):
            raise AssertionExpired(
                f"assertion valid [{assertion.issued_at}, {assertion.expires_at}], now={now}"
            )
        netid = self._subject_map.get(assertion.issuer, {}).get(assertion.subject)
        if netid is None:
            raise UnmappedSubject(f"{assertion.issuer}/{assertion.subject}")
        user = self._users.get(netid)
        if user is None or not user.active:
            raise UnknownUser(netid)
        principal = AuthenticatedPrincipal(
            netid=netid,
            method=AuthMethod.FEDERATED,
            mfa_passed=assertion.mfa_satisfied,
        )
        self._ledger.append(netid, "authn", netid, {
            "method": "federated",
            "issuer": assertion.issuer,
            "subject": assertion.subject,
            "mfa": "true" if assertion.mfa_satisfied else "false",
        })
        return principal

    # -- MFA ---------------------------------------------------------------------

    def verify_mfa(self, netid: str, factor_proof: str | None) -> AuthenticatedPrincipal:
        user = self._users.get(netid)
        if user is None or not user.active:
            raise UnknownUser(netid)
        if not factor_proof:
            self._ledger.append(netid, "mfa", netid, {"result": "missing-proof"})
            raise MfaRequired(netid)
        secret = self._mfa_secrets.get(netid)
        if secret is None or not hmac.compare_digest(secret, factor_proof):
            self._ledger.append(netid, "mfa", netid, {"result": "failed"})
            raise MfaFailed(netid)
        self._ledger.append(netid, "mfa", netid, {"result": "passed"})
        return AuthenticatedPrincipal(netid=netid, method=AuthMethod.LOCAL, mfa_passed=True)

    # -- groups --------------------------------------------------------------------

    def create_group(self, name: str, kind: GroupKind, owning_project: str | None = None,
                     *, actor: str = "broker") -> Group:
        """Create a group under a name that is not yet taken. Shadow groups,
        and every name under ``SHADOW_PREFIX``, belong to the session broker."""
        kind = GroupKind(kind)
        if kind is GroupKind.SHADOW or name.startswith(SHADOW_PREFIX):
            raise ShadowGroupImmutable("shadow groups are broker-managed")
        if name in self._groups:
            raise DuplicateId(f"group {name}")
        group = Group(name=name, kind=kind, owning_project=owning_project)
        self._groups[name] = group
        return group

    def group(self, name: str) -> Group | None:
        return self._groups.get(name)

    def has_group(self, name: str) -> bool:
        return name in self._groups

    def is_member(self, group_name: str, netid: str) -> bool:
        group = self._groups.get(group_name)
        return group is not None and netid in group.members

    def apply_membership(self, actor: str, group: Group, netid: str, action: str) -> Group:
        """Add or remove ``netid`` and record it. The policy engine decides
        who may change a group (``PolicyEngine.set_membership``); this only
        applies the change."""
        if action not in ("add", "remove"):
            raise ValueError(f"membership action {action!r}")
        if action == "add":
            changed = netid not in group.members
            group.members.add(netid)
        else:
            changed = netid in group.members
            group.members.discard(netid)
        self._ledger.append(actor, "membership", group.name, {
            "group": group.name,
            "netid": netid,
            "action": action,
            "result": "applied" if changed else "no-op",
        })
        return group

    # -- shadow mirroring (session broker only) ---------------------------------

    def shadow_attach(self, group_name: str, arbitrary_user: str) -> str:
        shadow_name = SHADOW_PREFIX + group_name
        shadow = self._groups.get(shadow_name)
        if shadow is None:
            shadow = Group(name=shadow_name, kind=GroupKind.SHADOW)
            self._groups[shadow_name] = shadow
        shadow.members.add(arbitrary_user)
        return shadow_name

    def shadow_detach(self, group_name: str, arbitrary_user: str) -> None:
        shadow = self._groups.get(SHADOW_PREFIX + group_name)
        if shadow is not None:
            shadow.members.discard(arbitrary_user)
