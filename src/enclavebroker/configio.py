"""Topology, directory, and scenario files.

All three use JSON. Validation errors name the file, a best-effort line
number, and the offending field so misconfigurations are quick to locate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .broker import OPS, Broker
from .enclave import RESEARCH_SUBNET, ZONE_IDS
from .errors import BadRequest, BrokerError, DanglingReference, ParseError, SchemaError
from .identity import Affiliation, GroupKind
from .ledger import AuditLedger


def _read_json(path: str | Path) -> tuple[dict, str]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path}:1: top level must be an object")
    return data, text


def _line_of(text: str, needle: str) -> int:
    """Best-effort line number of the first occurrence of a quoted value."""
    idx = text.find(f'"{needle}"')
    if idx < 0:
        return 1
    return text.count("\n", 0, idx) + 1


def _fail(kind, path, text, needle: str, field_name: str, message: str):
    raise kind(f"{path}:{_line_of(text, needle)}: field {field_name!r} on {needle!r}: "
               f"{message}")


# -- directory -----------------------------------------------------------------


def load_directory(broker: Broker, path: str | Path) -> None:
    data, text = _read_json(path)
    directory = broker.directory

    for netid in data.get("admins", []):
        directory.admins.add(netid)

    for entry in data.get("users", []):
        netid = entry.get("netid")
        if not netid:
            _fail(SchemaError, path, text, "users", "users[].netid", "missing netid")
        try:
            user = directory.register_user(
                netid,
                Affiliation(entry.get("affiliation", "member")),
                entry.get("sponsor"),
                mfa_secret=entry.get("mfa_secret"),
                actor="bootstrap",
            )
        except BrokerError as exc:
            _fail(SchemaError, path, text, netid, "users[]", str(exc))
        if entry.get("active") is False:
            user.active = False

    for entry in data.get("groups", []):
        name = entry.get("name")
        if not name:
            _fail(SchemaError, path, text, "groups", "groups[].name", "missing name")
        kind = entry.get("kind", "role")
        if kind == "shadow":
            _fail(SchemaError, path, text, name, "groups[].kind",
                  "shadow groups are broker-managed")
        group = directory.create_group(name, GroupKind(kind), entry.get("owning_project"))
        for member in entry.get("members", []):
            if not directory.has_user(member):
                _fail(DanglingReference, path, text, name, "groups[].members",
                      f"member {member!r} not in directory")
            group.members.add(member)

    for issuer in data.get("issuers", []):
        directory.add_trusted_issuer(issuer)

    for issuer, mapping in data.get("subject_map", {}).items():
        for subject, netid in mapping.items():
            if not directory.has_user(netid):
                _fail(DanglingReference, path, text, subject, "subject_map",
                      f"mapped netid {netid!r} not in directory")
            directory.map_subject(issuer, subject, netid)


# -- topology ------------------------------------------------------------------


def load_topology(broker: Broker, path: str | Path) -> None:
    data, text = _read_json(path)
    enclave = broker.enclave

    zones = data.get("zones", [])
    if not zones:
        _fail(SchemaError, path, text, "zones", "zones", "topology declares no zones")
    declared = {z.get("id") for z in zones}
    for entry in zones:
        zone_id = entry.get("id")
        if zone_id not in ZONE_IDS:
            _fail(SchemaError, path, text, str(zone_id), "zones[].id",
                  f"must be one of {ZONE_IDS}")
        parent = entry.get("parent")
        if zone_id == RESEARCH_SUBNET and parent != "protected-vrf":
            _fail(SchemaError, path, text, zone_id, "zones[].parent",
                  "the research subnet must declare the protected VRF as parent")
        if parent is not None and parent not in declared:
            _fail(DanglingReference, path, text, zone_id, "zones[].parent",
                  f"unknown parent {parent!r}")
        try:
            enclave.add_zone(zone_id, parent)
        except BrokerError as exc:
            _fail(SchemaError, path, text, zone_id, "zones[]", str(exc))

    for entry in data.get("gateways", []):
        gid = entry.get("id")
        if not gid:
            _fail(SchemaError, path, text, "gateways", "gateways[].id", "missing id")
        if entry.get("admits_to") not in enclave.zones:
            _fail(DanglingReference, path, text, gid, "gateways[].admits_to",
                  f"unknown zone {entry.get('admits_to')!r}")
        try:
            enclave.add_gateway(gid, entry.get("kind", "vpn"), entry["admits_to"],
                                entry.get("mode"), entry.get("monitored", True))
        except BrokerError as exc:
            _fail(SchemaError, path, text, gid, "gateways[]", str(exc))

    for entry in data.get("hosts", []):
        hid = entry.get("id")
        if not hid:
            _fail(SchemaError, path, text, "hosts", "hosts[].id", "missing id")
        try:
            enclave.add_host(hid, bool(entry.get("dedicated", False)),
                             int(entry.get("cpu", 0)), int(entry.get("ram", 0)))
        except BrokerError as exc:
            _fail(SchemaError, path, text, hid, "hosts[]", str(exc))

    for entry in data.get("background_vms", []):
        vid = entry.get("id")
        try:
            enclave.add_background_vm(vid, entry.get("zone", ""), entry.get("host", ""),
                                      int(entry.get("cpu", 1)), int(entry.get("ram", 1)))
        except DanglingReference as exc:
            _fail(DanglingReference, path, text, vid or "background_vms",
                  "background_vms[]", str(exc))
        except BrokerError as exc:
            _fail(SchemaError, path, text, vid or "background_vms",
                  "background_vms[]", str(exc))

    for name in data.get("services", []):
        enclave.add_service(name)

    for entry in data.get("exceptions", []):
        rid = entry.get("id")
        documented_by = entry.get("documented_by", "")
        if not documented_by.strip():
            _fail(SchemaError, path, text, rid or "exceptions",
                  "exceptions[].documented_by", "exception rules need a justification")
        rule = {
            "service": entry.get("service", ""),
            "src": entry.get("src", ""),
            "dst": entry.get("dst", ""),
            "direction": entry.get("direction", "inbound"),
        }
        if rule["service"] not in enclave.services:
            _fail(SchemaError, path, text, rid or "exceptions", "exceptions[].service",
                  f"unknown service {rule['service']!r}")
        # Bootstrap rules bypass the admin check; they are part of the design.
        was_admin = enclave.is_admin
        enclave.is_admin = lambda netid: True
        try:
            enclave.register_exception("bootstrap", rule_id=rid,
                                       documented_by=documented_by, **rule)
        except BrokerError as exc:
            _fail(SchemaError, path, text, rid or "exceptions", "exceptions[]", str(exc))
        finally:
            enclave.is_admin = was_admin


# -- scenarios -------------------------------------------------------------------


@dataclass
class Scenario:
    seed: int
    clock: int
    steps: list[dict] = field(default_factory=list)


def load_scenario(path: str | Path) -> Scenario:
    data, text = _read_json(path)
    steps = data.get("steps", [])
    if not isinstance(steps, list):
        raise SchemaError(f"{path}: field 'steps': must be a list")
    for i, step in enumerate(steps):
        if not isinstance(step, dict) or "op" not in step:
            raise SchemaError(f"{path}: field 'steps[{i}]': every step needs an 'op'")
    return Scenario(seed=int(data.get("seed", 0)), clock=int(data.get("clock", 0)),
                    steps=steps)


def build_broker(topology_path: str | Path, directory_path: str | Path, *,
                 seed: int = 0, start_time: int = 0, retention_days: int = 30,
                 allow_concurrent_sessions: bool = False) -> Broker:
    broker = Broker(seed=seed, start_time=start_time, retention_days=retention_days,
                    allow_concurrent_sessions=allow_concurrent_sessions)
    load_topology(broker, topology_path)
    load_directory(broker, directory_path)
    return broker


# -- scenario execution ------------------------------------------------------------


@dataclass
class StepResult:
    index: int
    op: str
    ok: bool
    detail: str = ""


@dataclass
class RunOutcome:
    exit_code: int
    results: list[StepResult]
    ledger: AuditLedger

    @property
    def mismatches(self) -> list[StepResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ledger_text(self) -> str:
        """The ledger export, rendered when read: most runs never ask for it."""
        return self.ledger.export_text()


def run_scenario(broker: Broker, scenario: Scenario) -> RunOutcome:
    """Execute steps in order. Exit code 0 on full match, 1 on the first
    verdict mismatch, 2 on invalid input (an unknown op, or arguments that
    are missing or ill-typed), 3 on internal error."""
    results: list[StepResult] = []
    exit_code = 0
    for i, step in enumerate(scenario.steps):
        op = step["op"]
        args = step.get("args", {})
        expect = step.get("expect")
        if not isinstance(op, str) or op not in OPS:
            results.append(StepResult(i, op, False, f"unknown op {op!r}"))
            return RunOutcome(2, results, broker.ledger)
        try:
            result = broker.op(op, args)
        except BrokerError as exc:
            if expect and expect.get("error") == exc.code:
                results.append(StepResult(i, op, True, f"expected error {exc.code}"))
                continue
            results.append(StepResult(
                i, op, False, f"unexpected {exc.code}: {exc}"))
            return RunOutcome(2 if isinstance(exc, BadRequest) else 1, results,
                              broker.ledger)
        except Exception as exc:  # noqa: BLE001 - fault barrier
            results.append(StepResult(i, op, False, f"internal error: {exc!r}"))
            return RunOutcome(3, results, broker.ledger)
        if expect:
            if "error" in expect:
                results.append(StepResult(
                    i, op, False,
                    f"expected error {expect['error']!r}, got success {result!r}"))
                return RunOutcome(1, results, broker.ledger)
            mismatch = _match_expect(expect, result)
            if mismatch:
                results.append(StepResult(i, op, False, mismatch))
                return RunOutcome(1, results, broker.ledger)
        results.append(StepResult(i, op, True))
    return RunOutcome(exit_code, results, broker.ledger)


def _match_expect(expect: dict, result) -> str:
    if not isinstance(result, dict):
        return f"expected {expect!r}, got non-record result {result!r}"
    for key, wanted in expect.items():
        got = result.get(key)
        if got != wanted:
            return f"expected {key}={wanted!r}, got {got!r}"
    return ""
