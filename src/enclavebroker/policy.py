"""Policy engine: classification tiers, projects, grants, access decisions.

The decision table is the heart of the module:

  public      any authenticated principal may read
  restricted  allowed via a role group or an individual mode grant
  sensitive   allowed only via an individual mode grant; roles are ignored
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .clock import SimClock
from .errors import (
    DuplicateId,
    DuplicateProject,
    EmptyStewards,
    InvalidSpec,
    MfaRequired,
    PublicProjectNoGrants,
    ShadowGroupImmutable,
    Unauthorized,
    UnknownGroup,
    UnknownProject,
    UnknownUser,
)
from .identity import AuthenticatedPrincipal, Directory, Group, GroupKind
from .ledger import AuditLedger
from .model import ENCLAVE_ZONES, PROTECTED_VRF, AccessMode, Decision, Tier, allow, deny

# The access mode whose grants an access-mode group holds.
_GROUP_MODE = {GroupKind.ACCESS_VPN: AccessMode.VPN, GroupKind.ACCESS_RDP: AccessMode.RDP}


@dataclass
class Project:
    id: str
    classification: Tier
    stewards: set[str]
    vpn_group: str
    rdp_group: str
    role_rules: set[str] = field(default_factory=set)
    shares: set[str] = field(default_factory=set)
    zone: str = PROTECTED_VRF
    brokers: set[str] = field(default_factory=set)
    proxy_whitelist: set[str] = field(default_factory=set)
    retention_days: int | None = None

    def mode_group(self, mode: AccessMode) -> str:
        return self.vpn_group if mode is AccessMode.VPN else self.rdp_group


@dataclass(frozen=True)
class GrantRecord:
    project_id: str
    netid: str
    mode: AccessMode
    actor: str
    at: int
    active: bool

    def to_wire(self) -> dict:
        return {
            "project": self.project_id,
            "netid": self.netid,
            "mode": self.mode.value,
            "actor": self.actor,
            "at": self.at,
            "active": self.active,
        }


class PolicyEngine:
    def __init__(self, directory: Directory, ledger: AuditLedger, clock: SimClock):
        self._directory = directory
        self._ledger = ledger
        self._clock = clock
        self._projects: dict[str, Project] = {}
        # Wired by the broker facade: revoking a grant force-closes the
        # revoked principal's open session in that mode.
        self.on_revoke: Callable[[str, str, AccessMode], None] = lambda n, p, m: None

    # -- project lifecycle ---------------------------------------------------

    def register_project(self, actor: str, project_id: str, classification: Tier | str,
                         stewards: set[str] | list[str],
                         role_rules: set[str] | list[str] | None = None, *,
                         zone: str = PROTECTED_VRF,
                         brokers: set[str] | list[str] | None = None,
                         proxy_whitelist: set[str] | list[str] | None = None,
                         retention_days: int | None = None) -> Project:
        self._directory.require_admin(actor)
        if project_id in self._projects:
            raise DuplicateProject(project_id)
        stewards = set(stewards)
        if not stewards:
            raise EmptyStewards(project_id)
        for netid in sorted(stewards):
            user = self._directory.user(netid)
            if user is None or not user.active:
                raise UnknownUser(f"steward {netid}")
        role_rules = set(role_rules or ())
        for name in sorted(role_rules):
            if not self._directory.has_group(name):
                raise UnknownGroup(f"role rule {name}")
        if zone not in ENCLAVE_ZONES:
            raise InvalidSpec(f"project zone must be an enclave zone, not {zone!r}")
        vpn_group = f"{project_id}-vpn"
        rdp_group = f"{project_id}-rdp"
        for name in (vpn_group, rdp_group):
            if self._directory.has_group(name):
                raise DuplicateId(f"group {name}")
        self._directory.create_group(vpn_group, GroupKind.ACCESS_VPN, project_id)
        self._directory.create_group(rdp_group, GroupKind.ACCESS_RDP, project_id)
        project = Project(
            id=project_id,
            classification=Tier(classification),
            stewards=stewards,
            vpn_group=vpn_group,
            rdp_group=rdp_group,
            role_rules=role_rules,
            zone=zone,
            brokers=set(brokers or ()),
            proxy_whitelist={_normalize_origin(o) for o in (proxy_whitelist or ())},
            retention_days=retention_days,
        )
        self._projects[project_id] = project
        self._ledger.append(actor, "project-create", project_id, {
            "project": project_id,
            "tier": project.classification.value,
            "stewards": ",".join(sorted(stewards)),
            "zone": zone,
        })
        return project

    def get_project(self, project_id: str) -> Project:
        project = self._projects.get(project_id)
        if project is None:
            raise UnknownProject(project_id)
        return project

    def projects(self) -> list[Project]:
        return [self._projects[k] for k in sorted(self._projects)]

    def proxy_whitelist_of(self, project_id: str) -> set[str]:
        project = self._projects.get(project_id)
        return set(project.proxy_whitelist) if project else set()

    def set_proxy_whitelist(self, actor: str, project_id: str,
                            origins: list[str] | set[str]) -> Project:
        self._directory.require_admin(actor)
        project = self.get_project(project_id)
        project.proxy_whitelist = {_normalize_origin(o) for o in origins}
        self._ledger.append(actor, "proxy-config", project_id, {
            "project": project_id,
            "origins": ",".join(sorted(project.proxy_whitelist)),
        })
        return project

    def set_brokers(self, actor: str, project_id: str, netids: list[str] | set[str]) -> Project:
        self._directory.require_admin(actor)
        project = self.get_project(project_id)
        for netid in sorted(set(netids)):
            if not self._directory.has_user(netid):
                raise UnknownUser(netid)
        project.brokers = set(netids)
        self._ledger.append(actor, "role-assign", project_id, {
            "project": project_id,
            "role": "honest-broker",
            "netids": ",".join(sorted(project.brokers)),
        })
        return project

    # -- grants ----------------------------------------------------------------

    def grant_access(self, actor: str, project_id: str, netid: str,
                     mode: AccessMode | str) -> GrantRecord:
        return self._edit_access("grant", actor, project_id, netid, mode)

    def revoke_access(self, actor: str, project_id: str, netid: str,
                      mode: AccessMode | str) -> GrantRecord:
        return self._edit_access("revoke", actor, project_id, netid, mode)

    def _edit_access(self, action: str, actor: str, project_id: str, netid: str,
                     mode: AccessMode | str) -> GrantRecord:
        """Grant or revoke one access mode: the only change to a project's
        access groups, each recorded by a ``grant`` or ``revoke`` event."""
        project = self.get_project(project_id)
        mode = AccessMode(mode)
        grant = action == "grant"
        if actor not in project.stewards:
            raise Unauthorized(f"{actor} is not a steward of {project_id}")
        user = self._directory.user(netid)
        # A revoke may name a deactivated user; a grant may not.
        if user is None or (grant and not user.active):
            raise UnknownUser(netid)
        if grant and project.classification is Tier.PUBLIC:
            raise PublicProjectNoGrants(project_id)
        group = self._directory.group(project.mode_group(mode))
        self._directory.apply_membership(actor, group, netid, "add" if grant else "remove")
        at = self._clock.now
        self._ledger.append(actor, action, project_id, {
            "project": project_id,
            "netid": netid,
            "mode": mode.value,
        })
        if not grant:
            # Revocation is immediate: open sessions in the revoked mode do not drain.
            self.on_revoke(netid, project_id, mode)
        return GrantRecord(project_id, netid, mode, actor, at, active=grant)

    # -- membership ------------------------------------------------------------

    def set_membership(self, actor: str, group_name: str, netid: str, action: str) -> Group:
        """Add ``netid`` to or remove it from a group. An access-mode group
        changes only by a grant or revoke, so the ledger always carries one
        for an access change. Any other group an administrator may change,
        and a steward their project's groups; shadow groups none."""
        group = self._directory.group(group_name)
        if group is None:
            raise UnknownGroup(group_name)
        if not self._directory.has_user(netid):
            raise UnknownUser(netid)
        mode = _GROUP_MODE.get(group.kind)
        if mode is not None:
            project_id = group.owning_project
            if project_id is None:
                raise Unauthorized("access-mode groups change only via grant/revoke")
            self._edit_access("grant" if action == "add" else "revoke",
                              actor, project_id, netid, mode)
            return self._directory.group(self._projects[project_id].mode_group(mode))
        if group.kind is GroupKind.SHADOW:
            raise ShadowGroupImmutable(group.name)
        if not self._directory.is_admin(actor):
            if group.owning_project is None:
                raise Unauthorized(f"{actor} cannot manage {group.name}")
            project = self._projects.get(group.owning_project)
            if project is None or actor not in project.stewards:
                raise Unauthorized(f"{actor} is not a steward of {group.owning_project}")
        return self._directory.apply_membership(actor, group, netid, action)

    # -- decisions ----------------------------------------------------------------

    def check_access(self, principal: AuthenticatedPrincipal, project_id: str,
                     mode: AccessMode | str) -> Decision:
        if not principal.mfa_passed:
            raise MfaRequired(principal.netid)
        project = self.get_project(project_id)
        mode = AccessMode(mode)
        netid = principal.netid
        tier = project.classification
        if tier is Tier.PUBLIC:
            return allow("public-tier")
        in_mode_group = self._directory.is_member(project.mode_group(mode), netid)
        if tier is Tier.SENSITIVE:
            if in_mode_group:
                return allow("explicit-grant")
            return deny("sensitive-explicit-only")
        # restricted
        if in_mode_group:
            return allow("mode-grant")
        for role_group in sorted(project.role_rules):
            if self._directory.is_member(role_group, netid):
                return allow("role-rule")
        return deny("no-grant")

    def authorize_mode(self, principal: AuthenticatedPrincipal,
                       project_id: str) -> set[AccessMode]:
        if not principal.mfa_passed:
            raise MfaRequired(principal.netid)
        self.get_project(project_id)
        return {
            mode for mode in (AccessMode.VPN, AccessMode.RDP)
            if self.check_access(principal, project_id, mode).allowed
        }


def _normalize_origin(origin: str) -> str:
    """Origins match on scheme + host, exact compare, case-insensitive host."""
    origin = origin.strip()
    if "://" not in origin:
        raise InvalidSpec(f"origin needs a scheme: {origin!r}")
    scheme, rest = origin.split("://", 1)
    host = rest.split("/", 1)[0]
    return f"{scheme.lower()}://{host.lower()}"
