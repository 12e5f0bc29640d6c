"""Append-only, hash-chained audit ledger.

Each event is chained to its predecessor with a SHA-256 digest over a
canonical JSON encoding, so any mutation of a stored event is detectable.
The ledger also answers the two forensic questions the broker must support:
which real principal owned an arbitrary user at a point in time, and what
happened during a given session.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
from bisect import bisect_left, bisect_right
from collections.abc import MutableSequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

from .clock import SimClock
from .errors import (
    NoSessionAtTime,
    UnknownAction,
    UnknownArbitraryUser,
    UnknownProject,
    UnknownSession,
)

GENESIS_HASH = "0" * 64

# Closed action vocabulary. append() rejects anything else so that reports
# stay computable from a fixed set of verbs.
ACTIONS = frozenset(
    {
        "register",
        "deactivate",
        "authn",
        "mfa",
        "membership",
        "project-create",
        "role-assign",
        "proxy-config",
        "grant",
        "revoke",
        "revoke-forced-close",
        "map",
        "attach",
        "credential-mint",
        "credential-destroy",
        "close",
        "egress-allow",
        "egress-deny",
        "export-submit",
        "export-adjudicate",
        "provision",
        "resize",
        "destroy",
        "share-create",
        "acl-set",
        "exception-add",
        "traverse",
        "proxy-fetch",
        "image-submit",
        "image-vet",
        "image-approve",
        "image-deploy",
        "image-revoke",
        "retention-expire",
    }
)

EXPORT_FIELDS = ("seq", "at", "actor", "action", "object", "detail", "prev_hash", "this_hash")


class _Detail(dict):
    """A stored event's detail: a dict whose own mutators raise, so no reader
    can change a stored event in place. Being a dict, it compares, encodes
    and hashes like the plain dict it was built from; ``copy()`` returns a
    plain dict."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("a stored event's detail is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


@dataclass(frozen=True, slots=True)
class AuditEvent:
    seq: int
    at: int
    actor: str
    action: str
    object: str
    detail: dict[str, str]
    prev_hash: str
    this_hash: str

    def export_line(self) -> str:
        return _canonical_json(self.seq, self.at, self.actor, self.action, self.object,
                               self.detail, self.prev_hash, self.this_hash, export=True)


def event_hash(seq: int, at: int, actor: str, action: str, object_id: str,
               detail: dict[str, str], prev_hash: str) -> str:
    """Canonical digest of one event; detail keys are sorted for stability."""
    body = _canonical_json(seq, at, actor, action, object_id, detail, prev_hash, None,
                           export=False)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _canonical_json(seq: int, at: int, actor: str, action: str, object_id: str,
                    detail: dict[str, str], prev_hash: str, this_hash: str | None,
                    export: bool) -> str:
    """The one canonical JSON of an event: the export line, or the hash input
    `[seq,at,actor,action,object,[[k,v],...],prev_hash]`.

    Both are built by hand and equal `json.dumps` of the same values with
    separators `(",", ":")`: strings are quoted by the C function that
    `json.dumps` itself uses, and ints are written as `json.dumps` writes
    them. A field of any other type (a bool, a float, None, a detail key or
    value that is not a string) is left to `json.dumps`.
    """
    # Keys are unique, so sorting them orders the pairs as sorting the
    # pairs would, without comparing tuples.
    keys = sorted(detail)
    if type(seq) is int and type(at) is int:
        try:
            actor_q, action_q, object_q = _quote(actor), _quote(action), _quote(object_id)
            if not export:
                pairs = ",".join([f"[{_quote(k)},{_quote(detail[k])}]" for k in keys])
                return f"[{seq},{at},{actor_q},{action_q},{object_q},[{pairs}],{_quote(prev_hash)}]"
            pairs = ",".join([f"{_quote(k)}:{_quote(detail[k])}" for k in keys])
            return (f'{{"seq":{seq},"at":{at},"actor":{actor_q},"action":{action_q},'
                    f'"object":{object_q},"detail":{{{pairs}}},"prev_hash":{_quote(prev_hash)},'
                    f'"this_hash":{_quote(this_hash)}}}')
        except TypeError:  # _quote was given a field that is not a str
            pass
    items = [(k, detail[k]) for k in keys]
    if not export:
        return json.dumps([seq, at, actor, action, object_id, items, prev_hash],
                          separators=(",", ":"))
    record = {"seq": seq, "at": at, "actor": actor, "action": action, "object": object_id,
              "detail": dict(items), "prev_hash": prev_hash, "this_hash": this_hash}
    return json.dumps(record, separators=(",", ":"))


def _count(times: list[int], start: int, end: int) -> int:
    """How many of the sorted times fall in [start, end]; 0 when the period
    is inverted."""
    lo = bisect_left(times, start)
    return bisect_right(times, end, lo) - lo


def _any(times: list[int], start: int, end: int) -> bool:
    """Whether any of the sorted times falls in [start, end]."""
    i = bisect_left(times, start)
    return i < len(times) and times[i] <= end


@dataclass
class ComplianceReport:
    """Per-project activity counts recomputed purely from ledger events."""

    project_id: str
    period_start: int
    period_end: int
    sessions_by_mode: dict[str, int]
    egress_allowed: int
    egress_denied: int
    exception_traversals: int
    grants: int
    revokes: int
    efficiency_flags: list[str]
    affiliate_stewards: list[str]

    def to_wire(self) -> dict:
        return {
            "project_id": self.project_id,
            "period_start": self.period_start,
            "period_end": self.period_end,
            "sessions_by_mode": dict(self.sessions_by_mode),
            "egress_allowed": self.egress_allowed,
            "egress_denied": self.egress_denied,
            "exception_traversals": self.exception_traversals,
            "grants": self.grants,
            "revokes": self.revokes,
            "efficiency_flags": list(self.efficiency_flags),
            "affiliate_stewards": list(self.affiliate_stewards),
        }


# Actions a report only counts: their times are all it reads of them.
_COUNTED = frozenset({"egress-allow", "egress-deny", "grant", "revoke"})
# Every action a report reads anything of.
_REPORTED = _COUNTED | {"map", "traverse", "provision", "destroy"}


@dataclass(slots=True)
class _ProjectTimes:
    """What a compliance report reads of one project's events: times in
    ledger order, which is time order, so a report bisects instead of scans."""

    counted: dict[str, list[int]] = field(default_factory=dict)  # action -> times
    maps_by_mode: dict[str, list[int]] = field(default_factory=dict)
    maps_by_vm: dict[str, list[int]] = field(default_factory=dict)
    exception_traversals: list[int] = field(default_factory=list)
    provisioned: dict[str, int] = field(default_factory=dict)  # vm -> last provision
    destroyed: dict[str, int] = field(default_factory=dict)    # vm -> first destroy


@dataclass(slots=True)
class _MappingSpan:
    # One arbitrary-user tenure: from the session's map event until its close.
    principal: str
    start: int
    end: int | None = None


def _stored(event: AuditEvent) -> AuditEvent:
    """The event as the store keeps it: with a read-only detail."""
    if type(event.detail) is _Detail:
        return event
    return dataclasses.replace(event, detail=_Detail(event.detail))


class _EventStore(MutableSequence):
    """The ledger's events, and ``verified``: the count of leading events the
    last ``verify_chain`` passed. ``AuditLedger.append`` adds its new event
    to ``items`` itself. Every other write goes through the methods here,
    which store the event with a read-only detail and lower ``verified`` to
    the position they touch, so that event and all after it are rehashed by
    the next verify."""

    __slots__ = ("items", "verified")

    def __init__(self) -> None:
        self.items: list[AuditEvent] = []
        self.verified = 0

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index):
        return self.items[index]

    def __iter__(self):
        return iter(self.items)

    def __setitem__(self, index: int, event: AuditEvent) -> None:
        self._lower(index)
        self.items[index] = _stored(event)

    def __delitem__(self, index: int) -> None:
        self._lower(index)
        del self.items[index]

    def insert(self, index: int, event: AuditEvent) -> None:
        self._lower(index)
        self.items.insert(index, _stored(event))

    def _lower(self, index: int) -> None:
        """Lower the watermark to the position a write at ``index`` touches.
        A write takes one position, never a slice. A negative index counts
        from the end, and one below -len is 0, as list.insert clamps it."""
        index = operator.index(index)
        if index < 0:
            index = max(index + len(self.items), 0)
        self.verified = min(self.verified, index)


class AuditLedger:
    """The append-only event store. There is no update or delete operation.

    Events live in an ``_EventStore``: each is a frozen ``AuditEvent`` whose
    detail is read-only, and the store remembers how many leading events
    the last ``verify_chain`` passed.
    """

    def __init__(self, clock: SimClock):
        self._clock = clock
        self._events = _EventStore()
        self._last_hash = GENESIS_HASH
        # Session lookups read the events themselves. Reports read only
        # per-project times, kept in ledger order; ledger time never
        # decreases, so each list is sorted and a report bisects it.
        self._by_session: dict[str, list[AuditEvent]] = {}
        self._project_times: dict[str, _ProjectTimes] = {}
        self._projects: dict[str, tuple[str, ...]] = {}  # project -> stewards, sorted
        self._affiliates: set[str] = set()
        self._spans: dict[str, list[_MappingSpan]] = {}
        # The span of each open session; it leaves at the session's close.
        self._span_by_session: dict[str, _MappingSpan] = {}

    # -- writing -----------------------------------------------------------

    def append(self, actor: str, action: str, object_id: str,
               detail: dict[str, str] | None = None) -> int:
        if action not in ACTIONS:
            raise UnknownAction(f"action {action!r} not in the closed vocabulary")
        detail = _Detail(detail or {})
        for key, value in detail.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise TypeError("event detail must be a flat string map")
        at = self._clock.now
        events = self._events.items
        seq = len(events) + 1
        digest = event_hash(seq, at, actor, action, object_id, detail, self._last_hash)
        event = AuditEvent(seq, at, actor, action, object_id, detail, self._last_hash, digest)
        events.append(event)
        self._last_hash = digest
        self._index(event)
        return seq

    def _index(self, event: AuditEvent) -> None:
        sid = None
        if event.object.startswith("s-") and event.object[2:].isdigit():
            sid = event.object
        elif "session" in event.detail:
            sid = event.detail["session"]
        if sid is not None:
            self._by_session.setdefault(sid, []).append(event)
        if event.action in _REPORTED and "project" in event.detail:
            self._index_project(event.detail["project"], event)
        if (event.action == "register" and event.detail.get("affiliation") == "affiliate"
                and "netid" in event.detail):
            self._affiliates.add(event.detail["netid"])
        elif event.action == "project-create":
            self._projects[event.object] = tuple(
                s for s in event.detail.get("stewards", "").split(",") if s)
        elif event.action == "map":
            span = _MappingSpan(principal=event.detail["principal"], start=event.at)
            self._spans.setdefault(event.detail["arbitrary_user"], []).append(span)
            self._span_by_session[event.object] = span
        elif event.action in ("close", "revoke-forced-close"):
            span = self._span_by_session.pop(event.object, None)
            if span is not None:
                span.end = event.at

    def _index_project(self, project: str, event: AuditEvent) -> None:
        times = self._project_times.get(project)
        if times is None:
            times = self._project_times[project] = _ProjectTimes()
        action, detail, at = event.action, event.detail, event.at
        if action in _COUNTED:
            times.counted.setdefault(action, []).append(at)
        elif action == "map":
            times.maps_by_mode.setdefault(detail.get("mode", ""), []).append(at)
            if "vm" in detail:
                times.maps_by_vm.setdefault(detail["vm"], []).append(at)
        elif action == "traverse":
            if detail.get("via", "").startswith("exception"):
                times.exception_traversals.append(at)
        elif action == "provision":
            times.provisioned[event.object] = at
        else:  # destroy
            times.destroyed.setdefault(event.object, at)

    # -- reading -----------------------------------------------------------

    @property
    def events(self) -> list[AuditEvent]:
        return self._events.items.copy()

    def __len__(self) -> int:
        return len(self._events.items)

    def head_count(self) -> int:
        """The event count. Not stored outside the ledger yet, so it cannot
        reveal a truncated suffix."""
        return len(self._events)

    def resolve_identity(self, arbitrary_user: str, at: int) -> str:
        spans = self._spans.get(arbitrary_user)
        if not spans:
            raise UnknownArbitraryUser(arbitrary_user)
        for span in spans:
            if span.start <= at and (span.end is None or at <= span.end):
                return span.principal
        raise NoSessionAtTime(f"{arbitrary_user} owned no session at t={at}")

    def reconstruct_session(self, session_id: str) -> list[AuditEvent]:
        events = self._by_session.get(session_id)
        if not events:
            raise UnknownSession(session_id)
        return list(events)

    def verify_chain(self) -> tuple[bool, int | None]:
        """Recompute the digests; returns (ok, first bad seq).

        The events the last call passed, up to the store's watermark, have
        not been written since, so the check starts after them, from the
        stored hash of the last one: the result is the one a rehash from
        genesis gives. A pass moves the watermark to the end, a failure at
        a position to that position.

        A truncated suffix is not detectable by the chain alone; that needs a
        head count stored outside the ledger.
        """
        store = self._events
        events = store.items
        start = store.verified
        prev = events[start - 1].this_hash if start else GENESIS_HASH
        for i, event in enumerate(events[start:], start):
            if event.seq != i + 1 or event.prev_hash != prev:
                store.verified = i
                return False, i + 1
            digest = event_hash(event.seq, event.at, event.actor, event.action,
                                event.object, event.detail, event.prev_hash)
            if digest != event.this_hash:
                store.verified = i
                return False, event.seq
            prev = event.this_hash
        store.verified = len(events)
        return True, None

    def export_lines(self) -> list[str]:
        return [e.export_line() for e in self._events]

    def export_text(self) -> str:
        """Every export line, each ended by a newline. Joined once, so the
        text is held once: an empty last item gives the final newline."""
        lines = self.export_lines()
        lines.append("")
        return "\n".join(lines)

    # -- reports -----------------------------------------------------------

    def compliance_report(self, project_id: str, period_start: int,
                          period_end: int | None = None) -> ComplianceReport:
        """Counts over [period_start, period_end]; the period ends now by default.

        Each figure is one bisection of the project's time lists, and the
        efficiency flags one per VM of the project, so a report costs
        O(log n per figure + the project's VMs) and reads no event.
        """
        if project_id not in self._projects:
            raise UnknownProject(project_id)
        if period_end is None:
            period_end = self._clock.now
        start, end = period_start, period_end
        times = self._project_times.get(project_id) or _ProjectTimes()

        sessions_by_mode = {"vpn": 0, "rdp": 0}
        for mode, maps in times.maps_by_mode.items():
            n = _count(maps, start, end)
            if n or mode in sessions_by_mode:
                sessions_by_mode[mode] = n

        # A VM that existed during the period but hosted no session is flagged
        # so its allocation can be questioned.
        empty: list[int] = []
        flags = sorted(
            vm for vm, born in times.provisioned.items()
            if born <= end and times.destroyed.get(vm, end + 1) >= start
            and not _any(times.maps_by_vm.get(vm, empty), start, end)
        )

        counted = times.counted
        return ComplianceReport(
            project_id=project_id,
            period_start=period_start,
            period_end=period_end,
            sessions_by_mode=sessions_by_mode,
            egress_allowed=_count(counted.get("egress-allow", empty), start, end),
            egress_denied=_count(counted.get("egress-deny", empty), start, end),
            exception_traversals=_count(times.exception_traversals, start, end),
            grants=_count(counted.get("grant", empty), start, end),
            revokes=_count(counted.get("revoke", empty), start, end),
            efficiency_flags=flags,
            # Affiliates acting as stewards are permitted but surfaced for review.
            affiliate_stewards=[s for s in self._projects[project_id]
                                if s in self._affiliates],
        )
