"""Broker facade: wires the modules together and exposes every operation
through one declarative table, ``OPS``, shared by the CLI, the scenario
runner, and the wire service.

All state-mutating calls funnel through a single lock, which is the
serialization point promised by each module's concurrency contract.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Callable

from .clock import SimClock
from .egress import EgressControl
from .enclave import AccessContext, Enclave, RuleDirection
from .errors import BadRequest, MfaRequired, Unauthorized, UnknownOp
from .identity import (
    Affiliation,
    AuthenticatedPrincipal,
    Directory,
    FederatedAssertion,
)
from .ledger import AuditLedger
from .model import INTERNET, PROTECTED_VRF, AccessMode, Decision, Tier
from .pipeline import DeliveryPipeline
from .policy import PolicyEngine
from .sessions import SessionBroker

REQUIRED = object()  # the default of an argument a request must carry

# What each declared type accepts. A str Enum or a tuple accepts its values.
_ACCEPTS: dict[Any, tuple[Callable[[Any], bool], str]] = {
    str: (lambda v: isinstance(v, str), "a string"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
    bool: (lambda v: isinstance(v, bool), "a boolean"),
    dict: (lambda v: isinstance(v, dict), "an object"),
    list: (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
           "a list of strings"),
    AuthenticatedPrincipal: (lambda v: isinstance(v, str), "a netid string"),
}


class Arg:
    """One declared argument of an op: its key in the request, its type, and
    its default (``REQUIRED`` when a request must carry it).

    The type is ``str``, ``int`` (not a bool), ``float`` (an int is accepted
    and converted), ``bool``, ``list`` (of strings),
    ``dict``, a str ``Enum`` or a tuple of allowed strings (the string itself
    is passed on), or ``AuthenticatedPrincipal``: a netid that the broker
    resolves to the principal that passed MFA. A ``keyword`` argument goes to
    the target by that keyword, the others by position in declared order.
    ``values`` holds the allowed strings of an Enum or tuple type, else None.
    """

    __slots__ = ("name", "kind", "default", "keyword", "values", "accepts", "expects")

    def __init__(self, name: str, kind: Any = str, default: Any = REQUIRED,
                 keyword: str | None = None):
        self.name = name
        self.kind = kind
        self.default = default
        self.keyword = keyword
        if kind in _ACCEPTS:
            self.values = None
            self.accepts, self.expects = _ACCEPTS[kind]
        else:
            values = tuple(m.value for m in kind) if isinstance(kind, type) else kind
            self.values = values
            self.accepts = lambda v: isinstance(v, str) and v in values
            self.expects = "one of " + ", ".join(values)


def kwarg(name: str, kind: Any = str, default: Any = REQUIRED,
          keyword: str | None = None) -> Arg:
    """An argument passed by keyword, under its own name unless renamed."""
    return Arg(name, kind, default, keyword or name)


class Op:
    """One row of ``OPS``.

    ``target`` is ``"module.method"`` on the broker (``"sessions.close_session"``)
    or the name of a broker method; it is looked up on every call, so a
    method replaced after import is the one called. ``out`` shapes the
    result: by default a dict is returned as is and anything else as its
    ``to_wire()``; a str puts the result under that key; a callable is
    applied to the result.
    """

    __slots__ = ("owner", "method", "args", "out", "principals")

    def __init__(self, target: str, *args: Arg, out: str | Callable | None = None):
        self.owner, _, self.method = target.rpartition(".")
        self.args = args
        self.out = out
        # Principal arguments are positional; they are resolved once every
        # argument has been checked, so a malformed request never reaches
        # the MFA check.
        self.principals = tuple(i for i, a in enumerate(args)
                                if a.kind is AuthenticatedPrincipal)

    def parse(self, op: str, args: dict) -> tuple[list, dict]:
        """Check the request's arguments and return them as (positional,
        keywords) for the target. None counts as absent. Values pass on as
        sent; only an int given for a float is converted."""
        positional, keywords = [], {}
        for arg in self.args:
            value = args.get(arg.name)
            if value is None:
                if arg.default is REQUIRED:
                    raise BadRequest(f"{op}: missing argument {arg.name!r}")
                value = arg.default
            elif not arg.accepts(value):
                raise BadRequest(f"{op}: argument {arg.name!r} must be {arg.expects}")
            elif arg.kind is float:
                value = float(value)
            if arg.keyword is None:
                positional.append(value)
            else:
                keywords[arg.keyword] = value
        return positional, keywords


_SESSION_ARGS = (Arg("netid", AuthenticatedPrincipal), Arg("project"),
                 Arg("mode", AccessMode), Arg("endpoint_managed", bool, False),
                 kwarg("src_zone", str, INTERNET))


def _client_view(opened) -> dict:
    return opened[1].to_wire()  # (session, view): the client sees only the view


OPS: dict[str, Op] = {
    # clock
    "advance": Op("clock.advance", Arg("seconds", int), out="now"),
    # identity
    "register_user": Op(
        "directory.register_user", Arg("netid"), Arg("affiliation", Affiliation, "member"),
        Arg("sponsor", str, None), kwarg("mfa_secret", str, None),
        kwarg("actor", str, "broker"),
        out=lambda u: {"netid": u.netid, "affiliation": u.affiliation.value,
                       "sponsor": u.sponsor, "active": u.active}),
    "deactivate_user": Op("directory.deactivate_user", Arg("actor"), Arg("netid"),
                          out="deactivated"),
    # No `now` argument: an assertion is judged at the broker's own time.
    "assert_federated": Op(
        "_assert_federated", Arg("issuer"), Arg("subject"), Arg("issued_at", int),
        Arg("expires_at", int), Arg("mfa_satisfied", bool, False),
        Arg("attributes", dict, None)),
    "verify_mfa": Op("_verify_mfa", Arg("netid"), Arg("proof", str, None)),
    # Only register_project makes a project's access groups.
    "create_group": Op("_create_group", Arg("name"), Arg("kind", ("role",), "role"),
                       Arg("owning_project", str, None), Arg("actor", str, "broker")),
    "set_membership": Op(
        "policy.set_membership", Arg("actor"), Arg("group"), Arg("netid"),
        Arg("action", ("add", "remove")),
        out=lambda g: {"group": g.name, "members": sorted(g.members)}),
    # policy
    "register_project": Op(
        "policy.register_project", Arg("actor"), Arg("id"), Arg("classification", Tier),
        Arg("stewards", list, ()), Arg("role_rules", list, None),
        kwarg("zone", str, PROTECTED_VRF), kwarg("brokers", list, None),
        kwarg("proxy_whitelist", list, None), kwarg("retention_days", int, None),
        out=lambda p: {"project": p.id, "tier": p.classification.value,
                       "vpn_group": p.vpn_group, "rdp_group": p.rdp_group, "zone": p.zone}),
    "grant_access": Op("policy.grant_access", Arg("actor"), Arg("project"), Arg("netid"),
                       Arg("mode", AccessMode)),
    "revoke_access": Op("policy.revoke_access", Arg("actor"), Arg("project"), Arg("netid"),
                        Arg("mode", AccessMode)),
    "check_access": Op("policy.check_access", Arg("netid", AuthenticatedPrincipal),
                       Arg("project"), Arg("mode", AccessMode)),
    "authorize_mode": Op("policy.authorize_mode", Arg("netid", AuthenticatedPrincipal),
                         Arg("project"),
                         out=lambda modes: {"modes": sorted(m.value for m in modes)}),
    "set_proxy_whitelist": Op(
        "policy.set_proxy_whitelist", Arg("actor"), Arg("project"), Arg("origins", list),
        out=lambda p: {"project": p.id, "origins": sorted(p.proxy_whitelist)}),
    "set_brokers": Op("policy.set_brokers", Arg("actor"), Arg("project"), Arg("netids", list),
                      out=lambda p: {"project": p.id, "brokers": sorted(p.brokers)}),
    # enclave
    "provision_vm": Op("enclave.provision_vm", Arg("project"), Arg("zone"), Arg("cpu", int),
                       Arg("ram", int), Arg("dedicated", bool, False)),
    "resize_vm": Op("enclave.resize_vm", Arg("vm"), Arg("cpu", int), Arg("ram", int)),
    "destroy_vm": Op("enclave.destroy_vm", Arg("vm")),
    "read_disk": Op("_read_disk", Arg("vm")),
    "write_disk": Op("_write_disk", Arg("vm"), Arg("token")),
    "create_share": Op("enclave.create_share", Arg("project"), Arg("protocol"),
                       Arg("capacity_tb", float), Arg("dedicated_device", bool, False)),
    "set_share_acl": Op("enclave.set_share_acl", Arg("actor"), Arg("share"),
                        Arg("groups", list, ())),
    "is_reachable": Op("_is_reachable", Arg("src"), Arg("dst"), Arg("service"),
                       Arg("session", str, None)),
    "register_exception": Op(
        "enclave.register_exception", Arg("actor"), kwarg("service"), kwarg("src"),
        kwarg("dst"), kwarg("direction", RuleDirection, "inbound"),
        kwarg("documented_by", str, ""), kwarg("id", str, None, "rule_id"), out="rule"),
    "proxy_fetch": Op("enclave.proxy_fetch", Arg("project"), Arg("url")),
    # sessions
    "open_session": Op("sessions.open_session", *_SESSION_ARGS, out=_client_view),
    "resume_session": Op("sessions.resume_session", *_SESSION_ARGS, out=_client_view),
    "close_session": Op("sessions.close_session", Arg("session"),
                        out=lambda s: {"session_id": s.id, "state": s.state.value,
                                       "closed_at": s.closed_at}),
    "align_groups": Op("sessions.align_groups", Arg("session"), out="aligned"),
    "authenticate_to_vm": Op("sessions.authenticate_to_vm", Arg("secret"), Arg("vm"),
                             out=lambda outcome: {"outcome": outcome.value}),
    "expire_retained": Op("sessions.expire_retained", out="reclaimed"),
    # egress
    "attempt_clipboard": Op("egress.attempt_clipboard", Arg("session"),
                            Arg("direction", ("in", "out"), "out")),
    "attempt_file_egress": Op("egress.attempt_file_egress", Arg("session"),
                              Arg("object", str, "file")),
    "submit_export": Op("egress.submit_export", Arg("session"), Arg("payload")),
    "adjudicate_export": Op("egress.adjudicate_export", Arg("broker"), Arg("request"),
                            Arg("verdict", ("approved", "denied")), Arg("rationale")),
    # pipeline
    "submit_image": Op("pipeline.submit_image", Arg("builder"), Arg("project"),
                       Arg("payload"), Arg("source", str, "campus")),
    "vet_image": Op("pipeline.vet_image", Arg("vetter"), Arg("image"), Arg("report", str, "")),
    "approve_image": Op("pipeline.approve_image", Arg("approver"), Arg("image")),
    "deploy_image": Op("pipeline.deploy_image", Arg("operator"), Arg("image"), Arg("project"),
                       Arg("digest"), Arg("vm", str, None)),
    "update_deployment": Op("pipeline.update_deployment", Arg("operator"), Arg("instance"),
                            Arg("image")),
    "revoke_image": Op("pipeline.revoke_image", Arg("actor"), Arg("image")),
    # ledger
    "resolve_identity": Op("_resolve_identity", Arg("arbitrary_user"), Arg("at", int, None)),
    "reconstruct_session": Op("_reconstruct_session", Arg("session")),
    "verify_chain": Op("ledger.verify_chain",
                       out=lambda checked: {"ok": checked[0], "first_bad_seq": checked[1]}),
    "compliance_report": Op("ledger.compliance_report", Arg("project"),
                            Arg("start", int, 0), Arg("end", int, None)),
    "export_ledger": Op("ledger.export_lines",
                        out=lambda lines: {"events": len(lines), "lines": lines}),
}


class Broker:
    def __init__(self, *, seed: int = 0, start_time: int = 0,
                 retention_days: int = 30):
        self.clock = SimClock(start_time)
        self.rng = random.Random(seed)
        self.ledger = AuditLedger(self.clock)
        self.directory = Directory(self.ledger, self.clock)
        self.policy = PolicyEngine(self.directory, self.ledger, self.clock)
        self.enclave = Enclave(self.ledger, self.clock, self.rng, self.directory,
                               self.policy)
        self.sessions = SessionBroker(
            self.directory, self.policy, self.enclave, self.ledger, self.clock,
            self.rng, retention_days=retention_days)
        self.egress = EgressControl(self.sessions, self.policy, self.ledger, self.rng)
        self.pipeline = DeliveryPipeline(self.directory, self.policy, self.enclave,
                                         self.ledger, self.clock)
        # The two session cascades: the only seams wired between modules.
        self.policy.on_revoke = self.sessions.force_close_for
        self.enclave.on_vm_destroyed = self.sessions.handle_vm_destroyed

        self._lock = threading.RLock()
        self._authenticated: dict[str, AuthenticatedPrincipal] = {}

    # -- principals -------------------------------------------------------------

    def principal(self, netid: str) -> AuthenticatedPrincipal:
        principal = self._authenticated.get(netid)
        if principal is None or not principal.mfa_passed:
            raise MfaRequired(netid)
        return principal

    def check_reachable(self, src, dst: str, service: str) -> Decision:
        """Reachability check that also records exception-boundary traversals."""
        decision = self.enclave.is_reachable(src, dst, service)
        if decision.allowed and decision.reason.startswith("exception:"):
            dst_project = ""
            vm = self.enclave.vms.get(dst)
            if vm is not None:
                dst_project = vm.project_id
            elif dst in self.enclave.shares:
                dst_project = self.enclave.shares[dst].project_id
            self.ledger.append("broker", "traverse", dst, {
                "via": decision.reason,
                "service": service,
                "project": dst_project,
                "path": ">".join(decision.path),
            })
        return decision

    # -- dispatch ----------------------------------------------------------------

    def op(self, name: str, args: dict | None = None) -> Any:
        if not isinstance(name, str):
            raise BadRequest(f"op must be a string, not {type(name).__name__}")
        spec = OPS.get(name)
        if spec is None:
            raise UnknownOp(name)
        if args is None:
            args = {}
        elif not isinstance(args, dict):
            raise BadRequest(f"{name}: args must be an object, not {type(args).__name__}")
        positional, keywords = spec.parse(name, args)
        with self._lock:
            for i in spec.principals:
                positional[i] = self.principal(positional[i])
            owner = getattr(self, spec.owner) if spec.owner else self
            result = getattr(owner, spec.method)(*positional, **keywords)
            out = spec.out
            if out is None:
                return result if type(result) is dict else result.to_wire()
            if isinstance(out, str):
                return {out: result}
            return out(result)

    # -- op targets that shape their result or hold broker state -------------------

    def _assert_federated(self, issuer: str, subject: str, issued_at: int,
                          expires_at: int, mfa_satisfied: bool,
                          attributes: dict | None) -> AuthenticatedPrincipal:
        assertion = FederatedAssertion(issuer, subject, issued_at, expires_at,
                                       mfa_satisfied, dict(attributes or {}))
        principal = self.directory.assert_federated(assertion)
        if principal.mfa_passed:
            self._authenticated[principal.netid] = principal
        return principal

    def _verify_mfa(self, netid: str, proof: str | None) -> AuthenticatedPrincipal:
        principal = self.directory.verify_mfa(netid, proof)
        self._authenticated[principal.netid] = principal
        return principal

    def _create_group(self, name: str, kind: str, owning_project: str | None,
                      actor: str) -> dict:
        if not self.directory.is_admin(actor):
            raise Unauthorized(f"{actor} is not a platform administrator")
        group = self.directory.create_group(name, kind, owning_project, actor=actor)
        return {"group": group.name, "kind": group.kind.value}

    def _read_disk(self, vm: str) -> dict:
        return {"vm": vm, "disk": self.enclave.read_disk(vm)}

    def _write_disk(self, vm: str, token: str) -> dict:
        return {"vm": vm, "disk": self.enclave.write_disk(vm, token)}

    def _is_reachable(self, src: str, dst: str, service: str,
                      session: str | None) -> Decision:
        if session:
            opened = self.sessions.session(session)
            src = AccessContext(
                src_zone=src,
                mode=opened.mode,
                project_id=opened.project_id,
                authorized_modes=frozenset({opened.mode}),
            )
        return self.check_reachable(src, dst, service)

    def _resolve_identity(self, arbitrary_user: str, at: int | None) -> dict:
        netid = self.ledger.resolve_identity(
            arbitrary_user, self.clock.now if at is None else at)
        return {"arbitrary_user": arbitrary_user, "netid": netid}

    def _reconstruct_session(self, session: str) -> dict:
        return {"session": session, "events": self.ledger.reconstruct_session(session).records}
