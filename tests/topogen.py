"""Random small topologies, built twice: once as a live enclave for the
engine and once as plain data for the BFS oracle."""

from __future__ import annotations

import random

from enclavebroker.clock import SimClock
from enclavebroker.enclave import AccessContext, Enclave
from enclavebroker.ledger import AuditLedger
from enclavebroker.model import AccessMode, Tier
from enclavebroker.policy import Project

from oracles import (
    OracleEndpoint,
    OracleException,
    OracleGateway,
    OracleQuery,
    OracleTopology,
)

ZONES = ["internet", "campus", "management", "protected-vrf", "research-subnet"]
ENCLAVE_ZONES = ["protected-vrf", "research-subnet"]
SERVICES = ["rdp", "ssh", "cifs", "https"]
WHITELISTED = "https://data.example.org"
UNLISTED = "https://other.example.net"


class StubDirectory:
    """Everyone administers, and every group exists."""

    def is_admin(self, netid: str) -> bool:
        return True

    def require_admin(self, actor: str) -> None:
        pass

    def has_group(self, name: str) -> bool:
        return True


class StubPolicy:
    def __init__(self, projects: list[Project]):
        self._projects = {p.id: p for p in projects}

    def get_project(self, pid: str) -> Project:
        return self._projects[pid]

    def proxy_whitelist_of(self, pid: str) -> set[str]:
        return self._projects[pid].proxy_whitelist


def random_topology(rng: random.Random) -> tuple[Enclave, OracleTopology, list[OracleQuery]]:
    clock = SimClock(0)
    # The enclave's seed is drawn before the projects' zones, so each seed
    # keeps giving the same topology.
    enclave_rng = random.Random(rng.getrandbits(32))
    projects = [
        Project(id="p1", classification=Tier.SENSITIVE, stewards={"stw"},
                vpn_group="p1-vpn", rdp_group="p1-rdp",
                zone=rng.choice(ENCLAVE_ZONES),
                proxy_whitelist={WHITELISTED}),
        Project(id="p2", classification=Tier.RESTRICTED, stewards={"stw"},
                vpn_group="p2-vpn", rdp_group="p2-rdp",
                zone=rng.choice(ENCLAVE_ZONES)),
    ]
    enclave = Enclave(AuditLedger(clock), clock, enclave_rng, StubDirectory(),
                      StubPolicy(projects))
    for zone in ZONES:
        enclave.add_zone(zone, "protected-vrf" if zone == "research-subnet" else None)
    whitelists = {"p1": {WHITELISTED}, "p2": set()}

    oracle_gateways: list[OracleGateway] = []
    for i in range(rng.randint(1, 3)):
        kind = rng.choice(["vpn", "jumpbox"])
        mode = "vpn" if kind == "vpn" else "rdp"
        admits = rng.choice(ENCLAVE_ZONES)
        gid = f"gw-{i}"
        enclave.add_gateway(gid, kind, admits, mode)
        oracle_gateways.append(OracleGateway(gid, kind, admits, mode))

    enclave.add_host("h-shared", False, 1000, 4000)
    enclave.add_host("h-dedicated", True, 1000, 4000)

    endpoints: dict[str, OracleEndpoint] = {}
    for project in projects:
        for _ in range(rng.randint(1, 2)):
            vm = enclave.provision_vm(project.id, project.zone, 2, 4,
                                      dedicated=rng.random() < 0.3)
            endpoints[vm.id] = OracleEndpoint(vm.id, "vm", vm.zone, project.id)
        if rng.random() < 0.6:
            share = enclave.create_share(project.id, "cifs", 1.0)
            endpoints[share.id] = OracleEndpoint(share.id, "share", share.zone,
                                                 project.id, "cifs")
    if rng.random() < 0.4:
        bg = enclave.add_background_vm("bg-1", rng.choice(["campus", "management"]),
                                       "h-shared", 1, 1)
        endpoints[bg.id] = OracleEndpoint(bg.id, "vm", bg.zone, None)

    for origin in (WHITELISTED, UNLISTED):
        endpoints[origin] = OracleEndpoint(origin, "origin", "internet", None)

    oracle_exceptions: list[OracleException] = []
    endpoint_ids = [e for e in endpoints if "://" not in e]
    for i in range(rng.randint(0, 2)):
        service = rng.choice(["patching", "monitoring", "cifs", "https"])
        direction = rng.choice(["inbound", "outbound"])
        if direction == "inbound":
            src = rng.choice(["management", "campus"] + endpoint_ids)
            dst = rng.choice(endpoint_ids + ENCLAVE_ZONES)
        else:
            src = rng.choice(endpoint_ids + ENCLAVE_ZONES)
            dst = rng.choice(["internet", UNLISTED, WHITELISTED])
        rule_id = enclave.register_exception(
            "admin", service=service, src=src, dst=dst, direction=direction,
            documented_by="generated rule")
        oracle_exceptions.append(OracleException(rule_id, service, src, dst, direction))

    topo = OracleTopology(
        zones=set(ZONES),
        gateways=oracle_gateways,
        endpoints=endpoints,
        exceptions=oracle_exceptions,
        whitelists=whitelists,
    )

    contexts = [
        ("rdp", "p1", frozenset({"rdp", "vpn"})),
        ("vpn", "p1", frozenset({"vpn"})),
        ("rdp", "p2", frozenset({"rdp"})),
        ("rdp", "p2", frozenset()),  # session whose authorization was pulled
    ]
    queries: list[OracleQuery] = []
    plain_sources = ZONES + endpoint_ids
    destinations = sorted(endpoints)
    for service in SERVICES:
        for dst in destinations:
            for src in plain_sources:
                if src == dst:
                    continue
                queries.append(OracleQuery(src, dst, service))
            for mode, project, authorized in contexts:
                queries.append(OracleQuery("internet", dst, service,
                                           ctx_mode=mode, ctx_project=project,
                                           ctx_authorized=authorized))
    return enclave, topo, queries


def engine_answer(enclave: Enclave, q: OracleQuery):
    if q.ctx_mode is not None:
        src = AccessContext(
            src_zone=q.src,
            mode=AccessMode(q.ctx_mode),
            project_id=q.ctx_project,
            authorized_modes=frozenset(AccessMode(m) for m in q.ctx_authorized),
        )
    else:
        src = q.src
    return enclave.is_reachable(src, q.dst, q.service)
