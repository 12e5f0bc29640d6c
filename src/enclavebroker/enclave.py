"""Simulated enclave substrate: zones, gateways, hypervisors, VMs, shares.

Reachability semantics, in order of evaluation:

* destination outside the enclave: any outside source may reach it; an
  enclave source needs an outbound exception rule or, for web fetches, a
  proxy-whitelisted origin. Everything else is denied (minimal egress).
* destination inside the enclave: an enclave source reaches it only within
  its own zone and project (or via an exception); the two enclave zones are
  isolated from each other. An outside source needs either a brokered
  session entering through exactly one gateway whose mode, service, and
  project all match, or a registered exception rule. There is no direct
  ingress.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .clock import SimClock
from .errors import (
    AlreadyDestroyed,
    ContentDestroyed,
    DanglingReference,
    DuplicateId,
    InvalidSpec,
    IsolationRequired,
    NoCapacity,
    NoDedicatedHost,
    ProtocolForbidden,
    SchemaError,
    Unauthorized,
    UndocumentedRule,
    UnknownEndpoint,
    UnknownGroup,
    UnknownService,
    UnknownShare,
    VmDestroyed,
    VmNotRunning,
)
from .identity import Directory
from .ledger import AuditLedger
from .model import (
    ENCLAVE_ZONES,
    INTERNET,
    PROTECTED_VRF,
    RESEARCH_SUBNET,
    ZONE_IDS,
    AccessMode,
    Decision,
    allow,
    deny,
)
from .policy import PolicyEngine

DEFAULT_SERVICES = frozenset(
    {"cifs", "iscsi", "rdp", "ssh", "http", "https", "patching", "monitoring"}
)


class GatewayKind(str, Enum):
    VPN_CONTEXT = "vpn"
    RDP_JUMPBOX = "jumpbox"
    SSH = "ssh"


class VmState(str, Enum):
    RUNNING = "running"
    RETAINED = "retained"
    DESTROYED = "destroyed"


class ShareProtocol(str, Enum):
    CIFS = "cifs"
    ISCSI = "iscsi"


class RuleDirection(str, Enum):
    INBOUND = "inbound"
    OUTBOUND = "outbound"


@dataclass(frozen=True)
class Zone:
    id: str
    parent: str | None = None


@dataclass(frozen=True)
class Gateway:
    id: str
    kind: GatewayKind
    admits_to: str
    required_mode: AccessMode | None

    def admits_service(self, service: str) -> bool:
        if self.kind is GatewayKind.RDP_JUMPBOX:
            return service == "rdp"
        if self.kind is GatewayKind.SSH:
            return service == "ssh"
        return True  # a VPN context tunnels any service


@dataclass
class HypervisorHost:
    id: str
    dedicated_to_enclave: bool
    cpu: int
    ram: int
    used_cpu: int = 0
    used_ram: int = 0

    def fits(self, cpu: int, ram: int) -> bool:
        return self.used_cpu + cpu <= self.cpu and self.used_ram + ram <= self.ram


@dataclass
class VirtualMachine:
    id: str
    project_id: str
    zone: str
    host_id: str
    cpu: int
    ram: int
    state: VmState = VmState.RUNNING
    disk: str | None = None  # None means the content is gone for good

    def to_wire(self) -> dict:
        return {
            "vm": self.id,
            "project": self.project_id,
            "zone": self.zone,
            "host": self.host_id,
            "cpu": self.cpu,
            "ram": self.ram,
            "state": self.state.value,
        }


@dataclass
class StorageShare:
    id: str
    project_id: str
    protocol: ShareProtocol
    capacity_tb: float
    zone: str
    acl_groups: set[str] = field(default_factory=set)
    dedicated_device: bool = False
    encrypted_at_rest: bool = False
    resizable: bool = True

    def to_wire(self) -> dict:
        return {
            "share": self.id,
            "project": self.project_id,
            "protocol": self.protocol.value,
            "capacity_tb": self.capacity_tb,
            "zone": self.zone,
            "acl_groups": sorted(self.acl_groups),
            "dedicated_device": self.dedicated_device,
            "resizable": self.resizable,
        }


@dataclass(frozen=True)
class ExceptionRule:
    id: str
    service: str
    src: str  # zone id or endpoint id
    dst: str  # zone id, endpoint id, or external origin
    direction: RuleDirection
    documented_by: str


@dataclass(frozen=True)
class AccessContext:
    """A brokered session's network stance: where it enters from and what
    the policy engine already authorized for it."""

    src_zone: str
    mode: AccessMode
    project_id: str
    authorized_modes: frozenset[AccessMode]


@dataclass(frozen=True)
class _Endpoint:
    id: str
    kind: str  # "vm" | "share" | "origin"
    zone: str
    project_id: str | None
    share_protocol: str | None = None


def _check_new(table: dict, kind: str, entry_id: str) -> None:
    if entry_id in table:
        raise DuplicateId(f"{kind} {entry_id!r} already exists")


class Enclave:
    """Topology plus the VM and share lifecycle over it."""

    def __init__(self, ledger: AuditLedger, clock: SimClock, rng,
                 directory: Directory, policy: PolicyEngine):
        self._ledger = ledger
        self._clock = clock
        self._rng = rng
        self._directory = directory
        self._policy = policy
        self.zones: dict[str, Zone] = {}
        self.gateways: dict[str, Gateway] = {}
        self.hosts: dict[str, HypervisorHost] = {}
        self.vms: dict[str, VirtualMachine] = {}
        self.shares: dict[str, StorageShare] = {}
        self.exceptions: dict[str, ExceptionRule] = {}
        self.services: set[str] = set(DEFAULT_SERVICES)
        self._vm_seq = 0
        self._share_seq = 0
        self._rule_seq = 0
        # Wired by the broker facade: the session broker is built after us.
        self.on_vm_destroyed: Callable[[str], None] = lambda vm_id: None

    # -- topology construction -------------------------------------------------

    def add_zone(self, zone_id: str, parent: str | None = None) -> Zone:
        if zone_id not in ZONE_IDS:
            raise SchemaError(f"zone id must be one of {ZONE_IDS}, got {zone_id!r}")
        if zone_id == RESEARCH_SUBNET:
            if parent != PROTECTED_VRF:
                raise SchemaError("the research subnet must nest inside the protected VRF")
        elif parent is not None:
            raise SchemaError(f"zone {zone_id} cannot have a parent")
        _check_new(self.zones, "zone", zone_id)
        zone = Zone(zone_id, parent)
        self.zones[zone_id] = zone
        return zone

    def add_gateway(self, gateway_id: str, kind: GatewayKind | str, admits_to: str,
                    required_mode: AccessMode | str | None, monitored: bool = True) -> Gateway:
        _check_new(self.gateways, "gateway", gateway_id)
        if admits_to not in self.zones:
            raise DanglingReference(f"gateway {gateway_id} admits to unknown zone {admits_to!r}")
        if not monitored:
            raise SchemaError(f"gateway {gateway_id} must be monitored")
        kind = GatewayKind(kind)
        mode = AccessMode(required_mode) if required_mode is not None else None
        if kind is GatewayKind.SSH and mode is not None:
            raise SchemaError("ssh gateways carry no access mode; enable them via an exception")
        if kind is not GatewayKind.SSH and mode is None:
            raise SchemaError(f"gateway {gateway_id} needs a required mode")
        gateway = Gateway(gateway_id, kind, admits_to, mode)
        self.gateways[gateway_id] = gateway
        return gateway

    def add_host(self, host_id: str, dedicated: bool, cpu: int, ram: int) -> HypervisorHost:
        _check_new(self.hosts, "host", host_id)
        if cpu <= 0 or ram <= 0:
            raise SchemaError(f"host {host_id} capacity must be positive")
        host = HypervisorHost(host_id, dedicated, cpu, ram)
        self.hosts[host_id] = host
        return host

    def add_background_vm(self, vm_id: str, zone: str, host_id: str,
                          cpu: int, ram: int) -> VirtualMachine:
        """Pre-existing non-project VM declared by the topology (shared tenancy)."""
        _check_new(self.vms, "vm", vm_id)
        host = self.hosts.get(host_id)
        if host is None:
            raise DanglingReference(f"vm {vm_id} references unknown host {host_id!r}")
        if zone not in self.zones:
            raise DanglingReference(f"vm {vm_id} references unknown zone {zone!r}")
        if host.dedicated_to_enclave and zone not in ENCLAVE_ZONES:
            raise SchemaError(
                f"host {host_id} is dedicated to the enclave; {vm_id} is outside it"
            )
        if not host.fits(cpu, ram):
            raise SchemaError(f"host {host_id} cannot fit background vm {vm_id}")
        vm = VirtualMachine(vm_id, project_id="", zone=zone, host_id=host_id,
                            cpu=cpu, ram=ram, disk=self._fresh_disk())
        self.vms[vm_id] = vm
        host.used_cpu += cpu
        host.used_ram += ram
        return vm

    def add_service(self, name: str) -> None:
        self.services.add(name)

    def register_exception(self, actor: str, *, service: str, src: str, dst: str,
                           direction: RuleDirection | str, documented_by: str,
                           rule_id: str | None = None) -> str:
        if not self._directory.is_admin(actor):
            raise Unauthorized(f"{actor} is not a platform administrator")
        return self.add_exception(actor, service=service, src=src, dst=dst,
                                  direction=direction, documented_by=documented_by,
                                  rule_id=rule_id)

    def add_exception(self, actor: str, *, service: str, src: str, dst: str,
                      direction: RuleDirection | str, documented_by: str,
                      rule_id: str | None = None) -> str:
        """Register a documented exception rule without the administrator
        check: topology files declare their rules this way."""
        if not documented_by or not documented_by.strip():
            raise UndocumentedRule("exception rules need a documented justification")
        if service not in self.services:
            raise UnknownService(service)
        if rule_id is None:
            # The next free number: a declared rule may already hold one.
            while rule_id is None or rule_id in self.exceptions:
                self._rule_seq += 1
                rule_id = f"exc-{self._rule_seq:04d}"
        _check_new(self.exceptions, "exception rule", rule_id)
        rule = ExceptionRule(rule_id, service, src, dst, RuleDirection(direction),
                             documented_by.strip())
        self.exceptions[rule_id] = rule
        self._ledger.append(actor, "exception-add", rule_id, {
            "service": service,
            "src": src,
            "dst": dst,
            "direction": rule.direction.value,
            "documented_by": rule.documented_by,
        })
        return rule_id

    # -- VM lifecycle ---------------------------------------------------------

    def _fresh_disk(self) -> str:
        return f"disk-{self._rng.getrandbits(64):016x}"

    def provision_vm(self, project_id: str, zone: str, cpu: int, ram: int,
                     dedicated: bool = False) -> VirtualMachine:
        self._policy.get_project(project_id)
        if cpu <= 0 or ram <= 0:
            raise InvalidSpec(f"cpu={cpu} ram={ram}")
        if zone not in ENCLAVE_ZONES:
            raise InvalidSpec(f"project VMs live in enclave zones, not {zone!r}")
        if zone not in self.zones:
            raise InvalidSpec(f"zone {zone} is not in the topology")
        candidates = [
            h for h in sorted(self.hosts.values(), key=lambda h: h.id)
            if h.dedicated_to_enclave == dedicated
        ]
        if dedicated and not candidates:
            raise NoDedicatedHost("no dedicated host in the topology")
        host = next((h for h in candidates if h.fits(cpu, ram)), None)
        if host is None:
            raise NoCapacity(f"no {'dedicated' if dedicated else 'shared'} host fits {cpu}c/{ram}g")
        # The next free number: a background VM may already hold one.
        vm_id = None
        while vm_id is None or vm_id in self.vms:
            self._vm_seq += 1
            vm_id = f"vm-{self._vm_seq:04d}"
        vm = VirtualMachine(
            id=vm_id,
            project_id=project_id,
            zone=zone,
            host_id=host.id,
            cpu=cpu,
            ram=ram,
            disk=self._fresh_disk(),
        )
        self.vms[vm.id] = vm
        host.used_cpu += cpu
        host.used_ram += ram
        self._ledger.append("broker", "provision", vm.id, {
            "project": project_id,
            "vm": vm.id,
            "zone": zone,
            "host": host.id,
            "cpu": str(cpu),
            "ram": str(ram),
            "dedicated": "true" if dedicated else "false",
        })
        return vm

    def vm(self, vm_id: str) -> VirtualMachine:
        vm = self.vms.get(vm_id)
        if vm is None:
            raise UnknownEndpoint(vm_id)
        return vm

    def resize_vm(self, vm_id: str, cpu: int, ram: int) -> VirtualMachine:
        vm = self.vm(vm_id)
        if vm.state is VmState.DESTROYED:
            raise VmDestroyed(vm_id)
        if vm.state is not VmState.RUNNING:
            raise VmNotRunning(vm_id)
        if cpu <= 0 or ram <= 0:
            raise InvalidSpec(f"cpu={cpu} ram={ram}")
        host = self.hosts[vm.host_id]
        if host.used_cpu - vm.cpu + cpu > host.cpu or host.used_ram - vm.ram + ram > host.ram:
            raise NoCapacity(f"host {host.id} cannot absorb the resize")
        host.used_cpu += cpu - vm.cpu
        host.used_ram += ram - vm.ram
        vm.cpu, vm.ram = cpu, ram
        self._ledger.append("broker", "resize", vm_id, {
            "project": vm.project_id,
            "vm": vm_id,
            "cpu": str(cpu),
            "ram": str(ram),
        })
        return vm

    def destroy_vm(self, vm_id: str) -> dict:
        """Destroying a VM destroys whatever content its disk carried."""
        vm = self.vm(vm_id)
        if vm.state is VmState.DESTROYED:
            raise AlreadyDestroyed(vm_id)
        vm.state = VmState.DESTROYED
        vm.disk = None
        host = self.hosts[vm.host_id]
        host.used_cpu -= vm.cpu
        host.used_ram -= vm.ram
        self._ledger.append("broker", "destroy", vm_id, {
            "project": vm.project_id,
            "vm": vm_id,
        })
        self.on_vm_destroyed(vm_id)
        return {"vm": vm_id, "destroyed_at": self._clock.now, "disk": "absent"}

    def read_disk(self, vm_id: str) -> str:
        vm = self.vm(vm_id)
        if vm.state is VmState.DESTROYED or vm.disk is None:
            raise ContentDestroyed(vm_id)
        return vm.disk

    def write_disk(self, vm_id: str, token: str) -> str:
        vm = self.vm(vm_id)
        if vm.state is VmState.DESTROYED:
            raise ContentDestroyed(vm_id)
        vm.disk = token
        return token

    # -- storage ----------------------------------------------------------------

    def create_share(self, project_id: str, protocol: str, capacity_tb: float,
                     dedicated_device: bool = False,
                     encrypted_at_rest: bool = False) -> StorageShare:
        project = self._policy.get_project(project_id)
        protocol = protocol.lower()
        if protocol == "nfs":
            raise ProtocolForbidden("nfs is not acceptable inside the enclave")
        if protocol not in (ShareProtocol.CIFS.value, ShareProtocol.ISCSI.value):
            raise ProtocolForbidden(protocol)
        proto = ShareProtocol(protocol)
        if proto is ShareProtocol.ISCSI and not dedicated_device:
            raise IsolationRequired("iscsi shares require a dedicated device")
        if capacity_tb <= 0:
            raise InvalidSpec(f"capacity_tb={capacity_tb}")
        self._share_seq += 1
        share = StorageShare(
            id=f"share-{self._share_seq:04d}",
            project_id=project_id,
            protocol=proto,
            capacity_tb=capacity_tb,
            zone=project.zone,
            dedicated_device=dedicated_device,
            encrypted_at_rest=encrypted_at_rest,
            resizable=proto is ShareProtocol.CIFS,
        )
        self.shares[share.id] = share
        project.shares.add(share.id)
        self._ledger.append("broker", "share-create", share.id, {
            "project": project_id,
            "share": share.id,
            "protocol": proto.value,
            "capacity_tb": str(capacity_tb),
            "dedicated": "true" if share.dedicated_device else "false",
        })
        return share

    def share(self, share_id: str) -> StorageShare:
        share = self.shares.get(share_id)
        if share is None:
            raise UnknownShare(share_id)
        return share

    def set_share_acl(self, actor: str, share_id: str, groups: list[str] | set[str]) -> StorageShare:
        share = self.share(share_id)
        project = self._policy.get_project(share.project_id)
        if actor not in project.stewards and not self._directory.is_admin(actor):
            raise Unauthorized(f"{actor} is not a steward of {share.project_id}")
        groups = set(groups)
        for name in sorted(groups):
            if not self._directory.has_group(name):
                raise UnknownGroup(name)
        share.acl_groups = groups
        self._ledger.append(actor, "acl-set", share_id, {
            "project": share.project_id,
            "share": share_id,
            "groups": ",".join(sorted(groups)),
        })
        return share

    # -- reachability -------------------------------------------------------------

    def session_gateway(self, ctx: AccessContext, zone: str, project_id: str | None,
                        service: str) -> tuple[Gateway | None, str]:
        """The first gateway by id that admits a session to a ``project_id``
        host in ``zone``, with its reason; else None and the first rule that
        failed. The source must be a zone outside the enclave."""
        self._check_session_source(ctx)
        failure = None
        for gid in sorted(self.gateways):
            g = self.gateways[gid]
            if g.admits_to != zone:
                continue
            if not g.admits_service(service):
                failure = failure or "service-not-admitted"
            elif g.required_mode != ctx.mode:
                failure = failure or "mode-mismatch"
            elif ctx.mode not in ctx.authorized_modes:
                failure = failure or "not-authorized"
            elif project_id != ctx.project_id:
                failure = failure or "host-acl"
            else:
                return g, f"gateway:{g.id}"
        return None, failure or "no-gateway"

    def _check_session_source(self, ctx: AccessContext) -> None:
        if ctx.src_zone not in self.zones or ctx.src_zone in ENCLAVE_ZONES:
            raise UnknownEndpoint(f"session source zone {ctx.src_zone!r}")

    def _resolve_endpoint(self, label: str) -> _Endpoint | None:
        vm = self.vms.get(label)
        if vm is not None:
            # A destroyed VM's record is kept for its errors, not as an endpoint.
            if vm.state is VmState.DESTROYED:
                return None
            return _Endpoint(label, "vm", vm.zone, vm.project_id or None)
        share = self.shares.get(label)
        if share is not None:
            return _Endpoint(label, "share", share.zone, share.project_id,
                             share.protocol.value)
        if "://" in label:
            scheme, rest = label.split("://", 1)
            host = rest.split("/", 1)[0]
            return _Endpoint(f"{scheme.lower()}://{host.lower()}", "origin", INTERNET, None)
        return None

    def is_reachable(self, src, dst: str, service: str) -> Decision:
        """Pure evaluation; callers log traversals, this never touches the ledger."""
        if service not in self.services:
            raise UnknownService(service)

        ctx: AccessContext | None = None
        if isinstance(src, AccessContext):
            ctx = src
            self._check_session_source(ctx)
            src_zone, src_label, src_ep = ctx.src_zone, ctx.src_zone, None
        elif isinstance(src, str) and src in self.zones:
            src_zone, src_label, src_ep = src, src, None
        else:
            src_ep = self._resolve_endpoint(src) if isinstance(src, str) else None
            if src_ep is None:
                raise UnknownEndpoint(repr(src))
            src_zone, src_label = src_ep.zone, src_ep.id

        dst_ep = self._resolve_endpoint(dst)
        if dst_ep is None:
            raise UnknownEndpoint(repr(dst))

        src_inside = src_zone in ENCLAVE_ZONES
        dst_inside = dst_ep.zone in ENCLAVE_ZONES
        effective_project = ctx.project_id if ctx else (src_ep.project_id if src_ep else None)

        if dst_ep.kind == "share" and service != dst_ep.share_protocol:
            return deny("service-mismatch")

        if not dst_inside:
            if not src_inside:
                return allow("outside-enclave", [src_label, dst_ep.id])
            via = self._match_exception(src_label, src_zone, dst_ep, service,
                                        RuleDirection.OUTBOUND)
            if via is not None:
                return via
            if (dst_ep.kind == "origin" and service in ("http", "https")
                    and effective_project is not None
                    and dst_ep.id in self._policy.proxy_whitelist_of(effective_project)):
                return allow("proxy-whitelist", [src_label, "proxy", dst_ep.id])
            return deny("minimal-egress")

        # destination inside the enclave
        if src_inside:
            if (src_ep is not None and src_zone == dst_ep.zone
                    and src_ep.project_id == dst_ep.project_id
                    and src_ep.project_id is not None):
                return allow("intra-zone", [src_label, src_zone, dst_ep.id])
            via = self._match_exception(src_label, src_zone, dst_ep, service,
                                        RuleDirection.INBOUND)
            if via is not None:
                return via
            if src_ep is not None and src_zone == dst_ep.zone:
                return deny("project-isolation")
            return deny("zone-isolation")

        # outside -> inside: one gateway with a matching session, or an exception
        reason = None
        if ctx is not None:
            gateway, reason = self.session_gateway(ctx, dst_ep.zone, dst_ep.project_id,
                                                   service)
            if gateway is not None:
                return allow(reason, [src_label, gateway.id, dst_ep.zone, dst_ep.id])
        via = self._match_exception(src_label, src_zone, dst_ep, service,
                                    RuleDirection.INBOUND)
        if via is not None:
            return via
        return deny(reason or "no-direct-ingress")

    def _match_exception(self, src_label: str, src_zone: str, dst_ep: _Endpoint,
                         service: str, direction: RuleDirection) -> Decision | None:
        """The verdict of the first rule by id that admits the flow, if any."""
        for rid in sorted(self.exceptions):
            rule = self.exceptions[rid]
            if rule.direction is not direction or rule.service != service:
                continue
            if rule.src not in (src_label, src_zone):
                continue
            if rule.dst not in (dst_ep.id, dst_ep.zone):
                continue
            via = f"exception:{rule.id}"
            return allow(via, [src_label, via, dst_ep.id])
        return None

    # -- proxy ----------------------------------------------------------------------

    def proxy_fetch(self, project_id: str, url: str) -> Decision:
        self._policy.get_project(project_id)
        ep = self._resolve_endpoint(url)
        if ep is None or ep.kind != "origin":
            raise UnknownEndpoint(url)
        allowed = ep.id in self._policy.proxy_whitelist_of(project_id)
        decision = (allow("proxy-whitelist", ["proxy", ep.id]) if allowed
                    else deny("proxy-denied"))
        self._ledger.append("broker", "proxy-fetch", project_id, {
            "project": project_id,
            "origin": ep.id,
            "verdict": decision.verdict.value,
        })
        return decision
