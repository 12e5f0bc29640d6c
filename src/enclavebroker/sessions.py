"""Session broker: ephemeral brokered sessions on retained VMs.

A real principal never logs into a VM directly. The broker maps them onto a
per-VM arbitrary user, mints a single-session secret for that user, mirrors
the principal's group permissions onto the arbitrary user for the duration
of the session, and destroys the secret at close. The VM itself is retained
for a configurable period so its disk state survives between sessions, but
each new session gets a fresh secret; a captured secret is worthless once
its session closes.

Two non-disclosure rules are load-bearing and enforced here structurally:
the client view never carries the credential secret, and messages addressed
to a VM never carry the real principal's identity.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field
from enum import Enum

from .clock import SimClock
from .enclave import AccessContext, Enclave, VmState
from .errors import (
    AccessDenied,
    BrokerError,
    CredentialAlreadyActive,
    MfaRequired,
    NoPath,
    RetentionExpired,
    SessionAlreadyClosed,
    SessionAlreadyOpen,
    SessionClosed,
    UnknownSession,
    UnmanagedEndpoint,
    VmUnavailable,
)
from .identity import AuthenticatedPrincipal, Directory
from .ledger import AuditLedger
from .model import INTERNET, AccessMode
from .policy import PolicyEngine, Project

DAY = 86400
DEFAULT_VM_CPU = 4
DEFAULT_VM_RAM = 16

# The service each access mode rides once inside the enclave: RDP sessions
# terminate at the jumpbox protocol, VPN sessions tunnel a shell.
MODE_SERVICE = {AccessMode.RDP: "rdp", AccessMode.VPN: "ssh"}


class SessionState(str, Enum):
    OPEN = "open"
    CLOSED = "closed"


class AuthOutcome(str, Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"


@dataclass
class ArbitraryUser:
    name: str
    shadow_groups: set[str] = field(default_factory=set)


@dataclass
class EphemeralCredential:
    id: str
    arbitrary_user: str
    secret: str
    session_id: str


@dataclass
class Session:
    id: str
    principal: str
    project_id: str
    mode: AccessMode
    vm_id: str
    arbitrary_user: str
    credential_id: str
    opened_at: int
    endpoint_managed: bool
    state: SessionState = SessionState.OPEN
    closed_at: int | None = None


@dataclass
class RetentionBinding:
    principal: str
    project_id: str
    vm_id: str
    retained_until: int


@dataclass(frozen=True)
class ClientView:
    """What the user's client is told. No secret field exists, by contract."""

    session_id: str
    vm_id: str
    gateway_path: tuple[str, ...]
    mode: str

    def to_wire(self) -> dict:
        return {
            "session_id": self.session_id,
            "vm_id": self.vm_id,
            "gateway_path": list(self.gateway_path),
            "mode": self.mode,
        }


class SessionBroker:
    def __init__(self, directory: Directory, policy: PolicyEngine, enclave: Enclave,
                 ledger: AuditLedger, clock: SimClock, rng, *,
                 retention_days: int = 30):
        self._directory = directory
        self._policy = policy
        self._enclave = enclave
        self._ledger = ledger
        self._clock = clock
        self._rng = rng
        self.retention_days = retention_days
        # Live state only: a session, its credential and secret leave at
        # close, and an arbitrary user when its VM is destroyed. The ledger
        # keeps their history. A principal holds at most one open session
        # per project, so a VM carries at most one open session.
        self._open: dict[str, Session] = {}
        self._credentials: dict[str, EphemeralCredential] = {}
        self._by_secret: dict[str, str] = {}
        self._active_by_user: dict[str, str] = {}
        self._vm_users: dict[str, ArbitraryUser] = {}
        self._used_names: set[str] = set()
        self._bindings: dict[tuple[str, str], RetentionBinding] = {}
        self._session_seq = 0
        self._credential_seq = 0

    # -- lookups ----------------------------------------------------------------

    def session(self, session_id: str) -> Session:
        """The open session ``session_id``; a closed one is ``SessionClosed``."""
        return self._open_or(session_id, SessionClosed)

    def _open_or(self, session_id: str, closed: type[BrokerError]) -> Session:
        session = self._open.get(session_id)
        if session is not None:
            return session
        # Closed sessions are not kept: an id this broker issued, s-000001 up
        # to s-{_session_seq}, that is not open is a closed one.
        try:
            n = int(session_id[2:])
        except ValueError:
            n = 0
        if 0 < n <= self._session_seq and session_id == f"s-{n:06d}":
            raise closed(session_id)
        raise UnknownSession(session_id)

    def credential(self, credential_id: str) -> EphemeralCredential:
        return self._credentials[credential_id]

    def binding(self, principal: str, project_id: str) -> RetentionBinding | None:
        return self._bindings.get((principal, project_id))

    # -- naming and secrets -------------------------------------------------------

    def _mint_name(self) -> str:
        while True:
            name = f"u-{self._rng.getrandbits(32):08x}"
            if name not in self._used_names and not self._directory.has_user(name):
                self._used_names.add(name)
                return name

    def _mint_secret(self) -> str:
        # 128 bits from the OS: a collision is not worth a set of every
        # secret. The seeded stream can be read back from the export and from
        # disk tokens, so it must not decide a secret. Its draw is still made
        # and thrown away, so that every later name, disk token and release
        # token, and so the export, stay as they are.
        self._rng.getrandbits(128)
        return secrets.token_hex(16)

    def mint_credential(self, arbitrary_user: str, session_id: str) -> EphemeralCredential:
        if arbitrary_user in self._active_by_user:
            raise CredentialAlreadyActive(arbitrary_user)
        self._credential_seq += 1
        credential = EphemeralCredential(
            id=f"cred-{self._credential_seq:06d}",
            arbitrary_user=arbitrary_user,
            secret=self._mint_secret(),
            session_id=session_id,
        )
        self._credentials[credential.id] = credential
        self._by_secret[credential.secret] = credential.id
        self._active_by_user[arbitrary_user] = credential.id
        return credential

    def _destroy_credential(self, credential_id: str, session: Session) -> None:
        credential = self._credentials.pop(credential_id)
        del self._by_secret[credential.secret]
        del self._active_by_user[credential.arbitrary_user]
        self._ledger.append(session.principal, "credential-destroy", credential.id, {
            "session": session.id,
            "project": session.project_id,
        })

    # -- opening ------------------------------------------------------------------

    def open_session(self, principal: AuthenticatedPrincipal, project_id: str,
                     mode: AccessMode | str, endpoint_managed: bool, *,
                     src_zone: str = INTERNET) -> tuple[Session, ClientView]:
        return self._start(principal, project_id, AccessMode(mode), endpoint_managed,
                           src_zone=src_zone, require_binding=False)

    def resume_session(self, principal: AuthenticatedPrincipal, project_id: str,
                       mode: AccessMode | str, endpoint_managed: bool, *,
                       src_zone: str = INTERNET) -> tuple[Session, ClientView]:
        return self._start(principal, project_id, AccessMode(mode), endpoint_managed,
                           src_zone=src_zone, require_binding=True)

    def _start(self, principal: AuthenticatedPrincipal, project_id: str,
               mode: AccessMode, endpoint_managed: bool, *,
               src_zone: str, require_binding: bool) -> tuple[Session, ClientView]:
        now = self._clock.now
        if not principal.mfa_passed:
            raise MfaRequired(principal.netid)
        project = self._policy.get_project(project_id)
        decision = self._policy.check_access(principal, project_id, mode)
        if not decision.allowed:
            raise AccessDenied(decision.reason)
        if mode is AccessMode.VPN and not endpoint_managed:
            raise UnmanagedEndpoint("vpn access requires a managed endpoint")
        netid = principal.netid
        for other in self._open.values():
            if other.principal == netid and other.project_id == project_id:
                raise SessionAlreadyOpen(other.id)

        key = (netid, project_id)
        binding = self._bindings.get(key)
        retained = None
        if binding is None:
            if require_binding:
                raise RetentionExpired(f"no retained vm for {netid} on {project_id}")
        elif self._enclave.vm(binding.vm_id).state is VmState.DESTROYED:
            if require_binding:
                raise VmUnavailable(binding.vm_id)
        elif now > binding.retained_until:
            if require_binding:
                raise RetentionExpired(f"retained until {binding.retained_until}")
        else:
            retained = self._enclave.vm(binding.vm_id)

        # One gateway rule for fresh and retained VMs, decided before anything
        # changes. check_access admitted this mode above.
        service = MODE_SERVICE[mode]
        ctx = AccessContext(src_zone=src_zone, mode=mode, project_id=project_id,
                            authorized_modes=frozenset({mode}))
        gateway, reason = self._enclave.session_gateway(ctx, project.zone, project_id,
                                                        service)
        if gateway is None:
            raise NoPath(reason)

        if retained is not None:
            del self._bindings[key]
            vm = retained
            vm.state = VmState.RUNNING
            # The arbitrary-user name persists with the retained VM so file
            # ownership on the disk stays coherent; only the secret is new.
            arbitrary = self._vm_users[vm.id]
        else:
            if binding is not None:
                if self._enclave.vm(binding.vm_id).state is VmState.DESTROYED:
                    del self._bindings[key]
                else:
                    self._reclaim(key)  # lazily: an expired machine is never reused
            vm = self._enclave.provision_vm(project_id, project.zone,
                                            DEFAULT_VM_CPU, DEFAULT_VM_RAM)
            arbitrary = ArbitraryUser(name=self._mint_name())
            self._vm_users[vm.id] = arbitrary

        self._session_seq += 1
        session_id = f"s-{self._session_seq:06d}"
        credential = self.mint_credential(arbitrary.name, session_id)
        session = Session(
            id=session_id,
            principal=netid,
            project_id=project_id,
            mode=mode,
            vm_id=vm.id,
            arbitrary_user=arbitrary.name,
            credential_id=credential.id,
            opened_at=now,
            endpoint_managed=endpoint_managed,
        )
        self._open[session_id] = session

        self._ledger.append(netid, "authn", session_id, {
            "netid": netid,
            "method": principal.method.value,
            "mfa": "true",
            "project": project_id,
        })
        self._ledger.append(netid, "map", session_id, {
            "principal": netid,
            "arbitrary_user": arbitrary.name,
            "vm": vm.id,
            "mode": mode.value,
            "project": project_id,
            "resumed": "false" if retained is None else "true",
        })

        self.align_groups(session_id)
        attached = self._attached_shares(project, netid)
        self._ledger.append(netid, "attach", session_id, {
            "shares": ",".join(attached),
            "project": project_id,
        })
        self._ledger.append(netid, "credential-mint", credential.id, {
            "session": session_id,
            "project": project_id,
        })

        view = ClientView(session_id=session_id, vm_id=vm.id, mode=mode.value,
                          gateway_path=(src_zone, gateway.id, vm.zone, vm.id))
        return session, view

    def _attached_shares(self, project: Project, netid: str) -> list[str]:
        attached = []
        for share_id in sorted(project.shares):
            share = self._enclave.share(share_id)
            if any(self._directory.is_member(g, netid) for g in sorted(share.acl_groups)):
                attached.append(share_id)
        return attached

    # -- group alignment -----------------------------------------------------------

    def _relevant_groups(self, project: Project) -> list[str]:
        names = [project.vpn_group, project.rdp_group]
        names.extend(sorted(project.role_rules))
        for share_id in sorted(project.shares):
            for g in sorted(self._enclave.share(share_id).acl_groups):
                if g not in names:
                    names.append(g)
        return names

    def align_groups(self, session_id: str) -> list[str]:
        session = self.session(session_id)
        project = self._policy.get_project(session.project_id)
        arbitrary = self._vm_users[session.vm_id]
        created = []
        for group_name in self._relevant_groups(project):
            if self._directory.is_member(group_name, session.principal):
                self._directory.shadow_attach(group_name, arbitrary.name)
                if group_name not in arbitrary.shadow_groups:
                    arbitrary.shadow_groups.add(group_name)
                    created.append(group_name)
        return created

    def _unalign_groups(self, session: Session) -> None:
        arbitrary = self._vm_users[session.vm_id]
        for group_name in sorted(arbitrary.shadow_groups):
            self._directory.shadow_detach(group_name, arbitrary.name)
        arbitrary.shadow_groups.clear()

    def can_read_share(self, share_id: str, identity: str) -> bool:
        """ACL check for either a real principal or an in-session arbitrary user."""
        share = self._enclave.share(share_id)
        return any(self._directory.effective_member(g, identity)
                   for g in sorted(share.acl_groups))

    # -- authentication (the attack surface) ----------------------------------------

    def authenticate_to_vm(self, secret: str, vm_id: str) -> AuthOutcome:
        credential_id = self._by_secret.get(secret)
        if credential_id is None:
            return AuthOutcome.REJECTED
        session = self._open[self._credentials[credential_id].session_id]
        return AuthOutcome.ACCEPTED if session.vm_id == vm_id else AuthOutcome.REJECTED

    # -- closing -------------------------------------------------------------------

    def close_session(self, session_id: str) -> Session:
        session = self._open_or(session_id, SessionAlreadyClosed)
        self._finish(session, action="close", retain=True)
        return session

    def force_close_for(self, netid: str, project_id: str, mode: AccessMode) -> None:
        """Revocation cascade: close the principal's open session on the
        project in the revoked mode, if there is one, immediately."""
        session = next((s for s in self._open.values() if s.principal == netid
                        and s.project_id == project_id and s.mode == mode), None)
        if session is not None:
            self._finish(session, action="revoke-forced-close", retain=True)

    def handle_vm_destroyed(self, vm_id: str) -> None:
        """VM teardown closes the session riding it, if any, and drops its
        arbitrary user; nothing is retained."""
        session = next((s for s in self._open.values() if s.vm_id == vm_id), None)
        if session is not None:
            self._finish(session, action="close", retain=False, cause="vm-destroyed")
        self._vm_users.pop(vm_id, None)

    def _finish(self, session: Session, *, action: str,
                retain: bool, cause: str | None = None) -> None:
        now = self._clock.now
        self._destroy_credential(session.credential_id, session)
        self._unalign_groups(session)
        session.state = SessionState.CLOSED
        del self._open[session.id]
        session.closed_at = now
        detail = {
            "project": session.project_id,
            "vm": session.vm_id,
            "mode": session.mode.value,
        }
        if retain:
            project = self._policy.get_project(session.project_id)
            days = project.retention_days if project.retention_days is not None \
                else self.retention_days
            retained_until = now + days * DAY
            self._bindings[(session.principal, session.project_id)] = RetentionBinding(
                principal=session.principal,
                project_id=session.project_id,
                vm_id=session.vm_id,
                retained_until=retained_until,
            )
            vm = self._enclave.vm(session.vm_id)
            if vm.state is VmState.RUNNING:
                vm.state = VmState.RETAINED
            detail["retained_until"] = str(retained_until)
        if cause:
            detail["cause"] = cause
        self._ledger.append(session.principal, action, session.id, detail)

    # -- retention sweep --------------------------------------------------------------

    def expire_retained(self) -> list[str]:
        now = self._clock.now
        reclaimed = []
        for key in sorted(self._bindings):
            binding = self._bindings[key]
            if binding.retained_until < now and self._reclaim(key):
                reclaimed.append(binding.vm_id)
        return reclaimed

    def _reclaim(self, key: tuple[str, str]) -> bool:
        """Drop an expired binding and destroy its VM; False if it was gone."""
        binding = self._bindings.pop(key)
        standing = self._enclave.vm(binding.vm_id).state is not VmState.DESTROYED
        if standing:
            self._enclave.destroy_vm(binding.vm_id)
        self._ledger.append("broker", "retention-expire", binding.vm_id, {
            "project": binding.project_id,
            "principal": binding.principal,
            "vm": binding.vm_id,
        })
        return standing
