"""Topology, directory, and scenario files.

All three use JSON. Validation errors name the file, a best-effort line
number, and the offending field so misconfigurations are quick to locate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from .broker import OPS, Arg, Broker, Op, kwarg
from .enclave import GatewayKind, RuleDirection
from .errors import BadRequest, BrokerError, DanglingReference, ParseError, SchemaError
from .identity import Affiliation
from .ledger import AuditLedger
from .model import AccessMode


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


# The typed fields of each file, checked by the wire ops' own validator; each
# Op is named after what it checks, for its messages. First a file's top
# level, then one entry of each list section, with the fields in the order
# the entry's model method takes them. An entry is located by its first field.
_TOPOLOGY = Op("topology", Arg("services", list, ()))
_DIRECTORY = Op("directory", Arg("admins", list, ()), Arg("issuers", list, ()),
                Arg("subject_map", dict, None))
_SCENARIO = Op("scenario", Arg("seed", int, 0), Arg("clock", int, 0))
_SECTIONS = {op.method: op for op in (
    Op("zones", Arg("id"), Arg("parent", str, None)),
    Op("gateways", Arg("id"), Arg("kind", GatewayKind, "vpn"), Arg("admits_to"),
       Arg("mode", AccessMode, None), Arg("monitored", bool, True)),
    Op("hosts", Arg("id"), Arg("dedicated", bool, False), Arg("cpu", int), Arg("ram", int)),
    Op("background_vms", Arg("id"), Arg("zone"), Arg("host"), Arg("cpu", int, 1),
       Arg("ram", int, 1)),
    Op("exceptions", kwarg("id", str, None, "rule_id"), kwarg("service"), kwarg("src"),
       kwarg("dst"), kwarg("direction", RuleDirection, "inbound"),
       kwarg("documented_by", str, "")),
    Op("users", Arg("netid"), Arg("affiliation", Affiliation, "member"),
       Arg("sponsor", str, None), kwarg("mfa_secret", str, None), kwarg("active", bool, True)),
    Op("groups", Arg("name"), Arg("kind", ("role",), "role"),
       Arg("owning_project", str, None), Arg("members", list, ())),
    Op("subject_map", Arg("issuer"), Arg("subjects", dict)),
)}


def _load_error(exc: BrokerError, path, text: str, where: str) -> BrokerError:
    """A fault found while loading, as the loader reports it: a dangling
    reference stays one, and everything else is a schema error that keeps
    the model's own code."""
    kind = DanglingReference if isinstance(exc, DanglingReference) else SchemaError
    detail = exc if isinstance(exc, (kind, BadRequest)) else f"{exc.code}: {exc}"
    return kind(f"{path}:{_line_of(text, where)}: {where!r}: {detail}")


def _top_level(spec: Op, path, text: str, data: dict) -> list:
    try:
        return spec.parse(spec.method, data)[0]
    except BadRequest as exc:
        raise _load_error(exc, path, text, spec.method) from None


def _load(path, text: str, section: str, entries, call: Callable) -> None:
    """Check each entry of ``section`` against its declared fields, then pass
    them to ``call``, the model method or a function that calls it."""
    spec = _SECTIONS[section]
    key = spec.args[0].name
    if not isinstance(entries, list):
        raise _load_error(SchemaError(f"{section} must be a list"), path, text, section)
    for entry in entries:
        name = entry.get(key) if isinstance(entry, dict) else None
        where = name if isinstance(name, str) and name else section
        try:
            if not isinstance(entry, dict):
                raise SchemaError(f"each entry of {section} must be an object")
            positional, keywords = spec.parse(section, entry)
            if name == "":
                raise SchemaError(f"{section}: {key!r} must not be empty")
            call(*positional, **keywords)
        except BrokerError as exc:
            raise _load_error(exc, path, text, where) from None


# -- directory -----------------------------------------------------------------


def load_directory(broker: Broker, path: str | Path) -> None:
    data, text = _read_json(path)
    directory = broker.directory
    admins, issuers, subject_map = _top_level(_DIRECTORY, path, text, data)
    directory.admins.update(admins)

    def add_user(netid, affiliation, sponsor, *, mfa_secret, active):
        user = directory.register_user(netid, affiliation, sponsor,
                                       mfa_secret=mfa_secret, actor="bootstrap")
        user.active = active

    def add_group(name, kind, owning_project, members):
        group = directory.create_group(name, kind, owning_project)
        for member in members:
            if not directory.has_user(member):
                raise DanglingReference(f"member {member!r} not in directory")
            group.members.add(member)

    def map_subjects(issuer, subjects):
        for subject, netid in subjects.items():
            if not isinstance(netid, str) or not directory.has_user(netid):
                raise DanglingReference(f"mapped netid {netid!r} not in directory")
            directory.map_subject(issuer, subject, netid)

    _load(path, text, "users", data.get("users", []), add_user)
    _load(path, text, "groups", data.get("groups", []), add_group)
    for issuer in issuers:
        directory.add_trusted_issuer(issuer)
    _load(path, text, "subject_map",
          [{"issuer": issuer, "subjects": subjects}
           for issuer, subjects in (subject_map or {}).items()], map_subjects)


# -- topology ------------------------------------------------------------------


def load_topology(broker: Broker, path: str | Path) -> None:
    data, text = _read_json(path)
    enclave = broker.enclave
    (services,) = _top_level(_TOPOLOGY, path, text, data)

    _load(path, text, "zones", data.get("zones", []), enclave.add_zone)
    # Only the whole file shows these two faults.
    if not enclave.zones:
        raise _load_error(SchemaError("topology declares no zones"), path, text, "zones")
    for zone in enclave.zones.values():
        if zone.parent is not None and zone.parent not in enclave.zones:
            raise _load_error(DanglingReference(f"unknown parent {zone.parent!r}"),
                              path, text, zone.id)
    _load(path, text, "gateways", data.get("gateways", []), enclave.add_gateway)
    _load(path, text, "hosts", data.get("hosts", []), enclave.add_host)
    _load(path, text, "background_vms", data.get("background_vms", []),
          enclave.add_background_vm)
    for name in services:
        enclave.add_service(name)
    # A topology's rules are part of the design, so no administrator adds them.
    _load(path, text, "exceptions", data.get("exceptions", []),
          partial(enclave.add_exception, "bootstrap"))


# -- scenarios -------------------------------------------------------------------


@dataclass
class Scenario:
    seed: int
    clock: int
    steps: list[dict] = field(default_factory=list)


def load_scenario(path: str | Path) -> Scenario:
    data, text = _read_json(path)
    seed, clock = _top_level(_SCENARIO, path, text, data)
    steps = data.get("steps", [])
    if not isinstance(steps, list):
        raise SchemaError(f"{path}: field 'steps': must be a list")
    for i, step in enumerate(steps):
        if not isinstance(step, dict) or "op" not in step:
            raise SchemaError(f"{path}: field 'steps[{i}]': every step needs an 'op'")
    return Scenario(seed=seed, clock=clock, steps=steps)


def build_broker(topology_path: str | Path, directory_path: str | Path, *,
                 seed: int = 0, start_time: int = 0, retention_days: int = 30) -> Broker:
    broker = Broker(seed=seed, start_time=start_time, retention_days=retention_days)
    load_topology(broker, topology_path)
    load_directory(broker, directory_path)
    return broker


# -- scenario execution ------------------------------------------------------------


@dataclass(slots=True)
class StepResult:
    index: int
    op: str
    ok: bool
    detail: str = ""


@dataclass
class RunOutcome:
    """How a run ended: the exit code, the ledger, the count of steps that
    matched and the failing step's result, if one failed. It keeps no record
    per step. ``results`` and ``mismatches`` rebuild the per-step view on
    demand from ``steps``, the scenario's own list, as it stands when read."""

    exit_code: int
    ledger: AuditLedger
    steps: list[dict]
    matched: int
    failure: StepResult | None = None

    @property
    def results(self) -> list[StepResult]:
        """One result per step run: the matched steps, then the failure."""
        results = [StepResult(i, step["op"], True, _matched_detail(step))
                   for i, step in enumerate(self.steps[:self.matched])]
        if self.failure is not None:
            results.append(self.failure)
        return results

    @property
    def mismatches(self) -> list[StepResult]:
        return [] if self.failure is None else [self.failure]

    @property
    def ledger_text(self) -> str:
        """The ledger export, rendered when read: most runs never ask for it."""
        return self.ledger.export_text()


def _matched_detail(step: dict) -> str:
    """A matched step has a detail only if it expected an error, and then
    the error it expected is the one it raised."""
    expect = step.get("expect")
    return f"expected error {expect['error']}" if expect and "error" in expect else ""


def run_scenario(broker: Broker, scenario: Scenario) -> RunOutcome:
    """Execute steps in order until one fails. Exit code 0 on full match, 1
    on the first verdict mismatch, 2 on invalid input (an unknown op, an
    ``expect`` that is not an object, or arguments that are missing or
    ill-typed), 3 on internal error. Only a failing step gets a
    ``StepResult``; a matched one is only counted."""
    steps = scenario.steps

    def failed(exit_code: int, i: int, op, detail: str) -> RunOutcome:
        return RunOutcome(exit_code, broker.ledger, steps, i,
                          StepResult(i, op, False, detail))

    for i, step in enumerate(steps):
        op = step["op"]
        args = step.get("args", {})
        expect = step.get("expect")
        if not isinstance(op, str) or op not in OPS:
            return failed(2, i, op, f"unknown op {op!r}")
        if expect is not None and not isinstance(expect, dict):
            return failed(2, i, op, f"invalid expect {expect!r}: must be an object")
        try:
            result = broker.op(op, args)
        except BrokerError as exc:
            if expect and expect.get("error") == exc.code:
                continue
            return failed(2 if isinstance(exc, BadRequest) else 1, i, op,
                          f"unexpected {exc.code}: {exc}")
        except Exception as exc:  # noqa: BLE001 - fault barrier
            return failed(3, i, op, f"internal error: {exc!r}")
        if expect:
            if "error" in expect:
                return failed(1, i, op,
                              f"expected error {expect['error']!r}, got success {result!r}")
            mismatch = _match_expect(expect, result)
            if mismatch:
                return failed(1, i, op, mismatch)
    return RunOutcome(0, broker.ledger, steps, len(steps))


def _match_expect(expect: dict, result) -> str:
    if not isinstance(result, dict):
        return f"expected {expect!r}, got non-record result {result!r}"
    for key, wanted in expect.items():
        got = result.get(key)
        if got != wanted:
            return f"expected {key}={wanted!r}, got {got!r}"
    return ""
