"""Error types raised across the broker.

Every error carries a stable kebab-case ``code`` that the wire protocol and
scenario files use to match expected failures.
"""

from __future__ import annotations


class BrokerError(Exception):
    """Base class for every error the broker raises on purpose."""

    code = "broker-error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


# -- directory -----------------------------------------------------------

class DuplicateNetid(BrokerError):
    code = "duplicate-netid"


class MissingSponsor(BrokerError):
    code = "missing-sponsor"


class InvalidSponsor(BrokerError):
    code = "invalid-sponsor"


class UntrustedIssuer(BrokerError):
    code = "untrusted-issuer"


class AssertionExpired(BrokerError):
    code = "assertion-expired"


class UnmappedSubject(BrokerError):
    code = "unmapped-subject"


class MfaRequired(BrokerError):
    code = "mfa-required"


class MfaFailed(BrokerError):
    code = "mfa-failed"


class UnknownUser(BrokerError):
    code = "unknown-user"


class UnknownGroup(BrokerError):
    code = "unknown-group"


class ShadowGroupImmutable(BrokerError):
    code = "shadow-group-immutable"


class Unauthorized(BrokerError):
    code = "unauthorized"


# -- policy --------------------------------------------------------------

class DuplicateProject(BrokerError):
    code = "duplicate-project"


class EmptyStewards(BrokerError):
    code = "empty-stewards"


class PublicProjectNoGrants(BrokerError):
    code = "public-project-no-grants"


class UnknownProject(BrokerError):
    code = "unknown-project"


class AccessDenied(BrokerError):
    code = "access-denied"


# -- enclave -------------------------------------------------------------

class NoCapacity(BrokerError):
    code = "no-capacity"


class NoDedicatedHost(BrokerError):
    code = "no-dedicated-host"


class InvalidSpec(BrokerError):
    code = "invalid-spec"


class VmDestroyed(BrokerError):
    code = "vm-destroyed"


class VmNotRunning(BrokerError):
    code = "vm-not-running"


class AlreadyDestroyed(BrokerError):
    code = "already-destroyed"


class ContentDestroyed(BrokerError):
    code = "content-destroyed"


class ProtocolForbidden(BrokerError):
    code = "protocol-forbidden"


class IsolationRequired(BrokerError):
    code = "isolation-required"


class UnknownShare(BrokerError):
    code = "unknown-share"


class UnknownEndpoint(BrokerError):
    code = "unknown-endpoint"


class UnknownService(BrokerError):
    code = "unknown-service"


class UndocumentedRule(BrokerError):
    code = "undocumented-rule"


class DuplicateId(BrokerError):
    """A zone, gateway, host, VM, exception rule or group declared under an
    id that is already taken; the earlier entry is never replaced."""

    code = "duplicate-id"


# -- sessions ------------------------------------------------------------

class UnmanagedEndpoint(BrokerError):
    code = "unmanaged-endpoint"


class NoPath(BrokerError):
    code = "no-path"


class VmUnavailable(BrokerError):
    code = "vm-unavailable"


class CredentialAlreadyActive(BrokerError):
    code = "credential-already-active"


class SessionClosed(BrokerError):
    code = "session-closed"


class SessionAlreadyClosed(BrokerError):
    code = "session-already-closed"


class SessionAlreadyOpen(BrokerError):
    code = "session-already-open"


class RetentionExpired(BrokerError):
    code = "retention-expired"


class UnknownSession(BrokerError):
    code = "unknown-session"


# -- egress --------------------------------------------------------------

class EmptyPayload(BrokerError):
    code = "empty-payload"


class SelfAdjudication(BrokerError):
    code = "self-adjudication"


class AlreadyAdjudicated(BrokerError):
    code = "already-adjudicated"


class EmptyRationale(BrokerError):
    code = "empty-rationale"


class UnknownExportRequest(BrokerError):
    code = "unknown-export-request"


# -- pipeline ------------------------------------------------------------

class InsideEnclaveSubmission(BrokerError):
    code = "inside-enclave-submission"


class WrongState(BrokerError):
    code = "wrong-state"


class EmptyReport(BrokerError):
    code = "empty-report"


class NotApproved(BrokerError):
    code = "not-approved"


class DigestMismatch(BrokerError):
    code = "digest-mismatch"


class UnknownImage(BrokerError):
    code = "unknown-image"


class UnknownInstance(BrokerError):
    code = "unknown-instance"


# -- ledger --------------------------------------------------------------

class UnknownAction(BrokerError):
    code = "unknown-action"


class UnknownArbitraryUser(BrokerError):
    code = "unknown-arbitrary-user"


class NoSessionAtTime(BrokerError):
    code = "no-session-at-time"


# -- cli / io ------------------------------------------------------------

class ParseError(BrokerError):
    code = "parse-error"


class SchemaError(BrokerError):
    code = "schema-error"


class DanglingReference(BrokerError):
    code = "dangling-reference"


class BindFailure(BrokerError):
    code = "bind-failure"


class UnknownOp(BrokerError):
    code = "unknown-op"


class BadRequest(BrokerError):
    """A request whose arguments are missing, ill-typed or out of range."""

    code = "bad-request"
