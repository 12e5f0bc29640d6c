"""Egress control: mode-differentiated data removal plus adjudicated export.

RDP sessions can never move data out themselves; clipboard features are
deactivated in both directions and file egress is denied outright. VPN
sessions from managed endpoints may move data. The sanctioned path around
the RDP wall is an export request adjudicated by a project's honest broker,
who must not be the requester.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (
    AlreadyAdjudicated,
    EmptyPayload,
    EmptyRationale,
    SelfAdjudication,
    Unauthorized,
    UnknownExportRequest,
)
from .ledger import AuditLedger
from .model import AccessMode, Decision, Verdict
from .policy import PolicyEngine
from .sessions import SessionBroker


class ExportStatus(str, Enum):
    PENDING = "pending"
    APPROVED = "approved"
    DENIED = "denied"


@dataclass
class ExportRequest:
    id: str
    project_id: str
    requester: str
    payload: str
    status: ExportStatus
    broker: str | None = None
    rationale: str = ""
    release_token: str | None = None

    def to_wire(self) -> dict:
        return {
            "request": self.id,
            "project": self.project_id,
            "requester": self.requester,
            "payload": self.payload,
            "status": self.status.value,
            "broker": self.broker,
            "rationale": self.rationale,
            "release_token": self.release_token,
        }


def decide_clipboard(mode: AccessMode) -> tuple[Verdict, str]:
    if mode is AccessMode.RDP:
        return Verdict.DENY, "rdp-clipboard-disabled"
    return Verdict.ALLOW, "vpn-clipboard"


def decide_file(mode: AccessMode, endpoint_managed: bool) -> tuple[Verdict, str]:
    if mode is AccessMode.RDP:
        return Verdict.DENY, "rdp-no-egress"
    if endpoint_managed:
        return Verdict.ALLOW, "vpn-managed-egress"
    return Verdict.DENY, "vpn-unmanaged-endpoint"


class EgressControl:
    def __init__(self, sessions: SessionBroker, policy: PolicyEngine,
                 ledger: AuditLedger, rng):
        self._sessions = sessions
        self._policy = policy
        self._ledger = ledger
        self._rng = rng
        self._requests: dict[str, ExportRequest] = {}
        self._request_seq = 0

    def _log(self, session, kind: str, verdict: Verdict, extra: dict[str, str]) -> None:
        action = "egress-allow" if verdict is Verdict.ALLOW else "egress-deny"
        detail = {
            "session": session.id,
            "project": session.project_id,
            "mode": session.mode.value,
            "kind": kind,
        }
        detail.update(extra)
        # In-session actions are attributed to the arbitrary user; the ledger
        # resolves them back to the principal.
        self._ledger.append(session.arbitrary_user, action, session.id, detail)

    def attempt_clipboard(self, session_id: str, direction: str) -> Decision:
        session = self._sessions.session(session_id)
        if direction not in ("in", "out"):
            raise ValueError(f"clipboard direction {direction!r}")
        verdict, reason = decide_clipboard(session.mode)
        self._log(session, "clipboard", verdict, {"direction": direction})
        return Decision(verdict, reason)

    def attempt_file_egress(self, session_id: str, object_descriptor: str) -> Decision:
        session = self._sessions.session(session_id)
        verdict, reason = decide_file(session.mode, session.endpoint_managed)
        self._log(session, "file", verdict, {"object": object_descriptor})
        return Decision(verdict, reason)

    # -- honest-broker export ---------------------------------------------------

    def submit_export(self, session_id: str, payload: str) -> ExportRequest:
        session = self._sessions.session(session_id)
        if not payload or not payload.strip():
            raise EmptyPayload("export payload descriptor is empty")
        self._request_seq += 1
        request = ExportRequest(
            id=f"req-{self._request_seq:04d}",
            project_id=session.project_id,
            requester=session.principal,
            payload=payload,
            status=ExportStatus.PENDING,
        )
        self._requests[request.id] = request
        self._ledger.append(session.arbitrary_user, "export-submit", request.id, {
            "session": session.id,
            "project": session.project_id,
            "requester": session.principal,
            "payload": payload,
        })
        return request

    def request(self, request_id: str) -> ExportRequest:
        request = self._requests.get(request_id)
        if request is None:
            raise UnknownExportRequest(request_id)
        return request

    def adjudicate_export(self, broker: str, request_id: str, verdict: str,
                          rationale: str) -> ExportRequest:
        request = self.request(request_id)
        if request.status is not ExportStatus.PENDING:
            raise AlreadyAdjudicated(request_id)
        project = self._policy.get_project(request.project_id)
        if broker not in project.brokers:
            raise Unauthorized(f"{broker} does not hold the honest-broker role")
        if broker == request.requester:
            raise SelfAdjudication(broker)
        if not rationale or not rationale.strip():
            raise EmptyRationale(request_id)
        if verdict not in ("approved", "denied"):
            raise ValueError(f"verdict {verdict!r}")
        request.status = ExportStatus(verdict)
        request.broker = broker
        request.rationale = rationale
        detail = {
            "request": request.id,
            "project": request.project_id,
            "requester": request.requester,
            "broker": broker,
            "verdict": verdict,
        }
        if request.status is ExportStatus.APPROVED:
            request.release_token = f"rel-{self._rng.getrandbits(64):016x}"
            detail["release_token"] = request.release_token
        self._ledger.append(broker, "export-adjudicate", request.id, detail)
        return request
