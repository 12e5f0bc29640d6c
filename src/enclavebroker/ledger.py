"""Append-only, hash-chained audit ledger.

Each event is chained to its predecessor with a SHA-256 digest over a
canonical JSON encoding, so any mutation of a stored event is detectable.
The ledger also answers the two forensic questions the broker must support:
which real principal owned an arbitrary user at a point in time, and what
happened during a given session.
"""

from __future__ import annotations

import hashlib
import json
import operator
import threading
from bisect import bisect_left, bisect_right
from collections.abc import Callable, MutableSequence, Sequence
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
    """The detail of an event read out of the ledger: a dict whose own
    mutators raise, so no reader changes it by mistake. Each read builds a
    fresh one from the stored row, so not even a write behind its back
    reaches the store. Being a dict, it compares, encodes and hashes like
    the plain dict it was built from; ``copy()`` returns a plain dict."""

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
    """The one canonical JSON of an event, as `json.dumps` writes it with
    separators `(",", ":")`: the export line, or the hash input
    `[seq,at,actor,action,object,[[k,v],...],prev_hash]`. The codecs of a
    compiled shape write the same text for their rows."""
    # Keys are unique, so sorting them orders the pairs as sorting the
    # pairs would, without comparing tuples.
    items = [(k, detail[k]) for k in sorted(detail)]
    if not export:
        return json.dumps([seq, at, actor, action, object_id, items, prev_hash],
                          separators=(",", ":"))
    record = {"seq": seq, "at": at, "actor": actor, "action": action, "object": object_id,
              "detail": dict(items), "prev_hash": prev_hash, "this_hash": this_hash}
    return json.dumps(record, separators=(",", ":"))


# -- rows ------------------------------------------------------------------------
#
# The store keeps each event as one flat tuple, a row:
#
#     (seq, at, actor, action, object, prev_hash, this_hash, shape, *detail values)
#
# A tuple that holds only ints and strs is untracked by the garbage
# collector at the first collection it survives, so stored events cost no
# collector work. ``shape`` is the int id of the detail's keys in insertion
# order. It indexes the codecs that encode or decode a row of that shape,
# shared by every ledger in the process. Shape 0 is the general one: its
# rows carry the detail as key, value, key, value, ..., and its codecs go
# through ``_canonical_json``, so a field of any type encodes as it did
# before it was stored. A row takes another shape only when seq and at are
# ints and every other field, key and value is a str.

_GENERAL = 0


def _general_detail(row) -> dict:
    return dict(zip(row[8::2], row[9::2]))


def _general_fields(row) -> dict:
    return {key: 9 + 2 * i for i, key in enumerate(row[8::2])}


# The codecs of every shape, one list per codec, indexed by shape id. Each
# codec is a function of a row: the hash input, the export line, the record
# ``reconstruct_session`` sends on the wire, and the read-only detail of a
# read-out event. A shape's codec is made on its first call, so a shape pays
# only for the codecs it is used with. ``_FIELDS`` maps each key of a shape
# to its value's position in the row; the general shape has none, as its
# rows carry their own keys.
_HASH_INPUT: list[Callable] = [
    lambda r: _canonical_json(r[0], r[1], r[2], r[3], r[4], _general_detail(r), r[5], None,
                              export=False)]
_EXPORT_LINE: list[Callable] = [
    lambda r: _canonical_json(r[0], r[1], r[2], r[3], r[4], _general_detail(r), r[5], r[6],
                              export=True)]
_WIRE: list[Callable] = [
    lambda r: {"seq": r[0], "at": r[1], "actor": r[2], "action": r[3], "object": r[4],
               "detail": _general_detail(r)}]
_DETAIL: list[Callable] = [lambda r: _Detail(_general_detail(r))]
_CODECS = {"hash_input": _HASH_INPUT, "export_line": _EXPORT_LINE, "wire": _WIRE,
           "detail": _DETAIL}
_FIELDS: list[dict[str, int] | None] = [None]
_SHAPE_IDS: dict[tuple[str, ...], int] = {}
_FACTORIES: dict[tuple[str, int], Callable] = {}  # (codec, detail length) -> factory
_REGISTERING = threading.Lock()


def _shape_id(keys: tuple[str, ...]) -> int:
    """The id of the shape with these keys, registered on its first use.
    The id is published last, so no reader finds it before its codecs."""
    sid = _SHAPE_IDS.get(keys)
    if sid is None:
        with _REGISTERING:
            sid = _SHAPE_IDS.get(keys)
            if sid is None:
                sid = len(_FIELDS)
                _FIELDS.append({key: 8 + i for i, key in enumerate(keys)})
                for codec, codecs in _CODECS.items():
                    codecs.append(_first_call(codec, codecs, sid, keys))
                _SHAPE_IDS[keys] = sid
    return sid


def _first_call(codec: str, codecs: list[Callable], sid: int,
                keys: tuple[str, ...]) -> Callable:
    """Stands in for a shape's codec until its first call, which makes the
    codec and puts it in its place."""
    def first_call(row):
        made = codecs[sid] = _make(codec, keys)
        return made(row)
    return first_call


def _make(codec: str, keys: tuple[str, ...]) -> Callable:
    """One codec of the shape with these keys. Its code is generated once
    per codec and detail length, by ``_factory``; what is particular to
    the shape is bound as constants: the keys (``k``), the positions of
    the values in key order (``p``), and the fixed text before each of
    those values and after the last (``t``)."""
    n = len(keys)
    factory = _FACTORIES.get((codec, n))
    if factory is None:
        factory = _FACTORIES[codec, n] = _factory(codec, n)
    if codec == "wire":
        return factory(*keys)
    if codec == "detail":
        return factory(_Detail, *keys)
    order = sorted(range(n), key=keys.__getitem__)
    quoted = [_quote(keys[i]) for i in order]
    if codec == "hash_input":
        text = [("],[" if j else ",[[") + key + "," for j, key in enumerate(quoted)]
        text.append("]]," if n else ",[],")
    else:
        text = [("," if j else ',"detail":{') + key + ":" for j, key in enumerate(quoted)]
        text.append('},"prev_hash":' if n else ',"detail":{},"prev_hash":')
    return factory(_quote, *[8 + i for i in order], *text)


def _factory(codec: str, n: int) -> Callable:
    """Generate, with a single ``exec`` as ``dataclasses`` builds
    ``__init__``, the factory of one codec for details of ``n`` keys. The
    codec is one expression over the row. The source depends on the codec
    and ``n`` alone, so key text never enters it."""
    keys = [f"k{i}" for i in range(n)]
    detail = "{" + ", ".join(f"k{i}: r[{8 + i}]" for i in range(n)) + "}"
    values = "".join(f"{{t{j}}}{{q(r[p{j}])}}" for j in range(n)) + f"{{t{n}}}"
    if codec == "hash_input":
        params = ["q", *[f"p{j}" for j in range(n)], *[f"t{j}" for j in range(n + 1)]]
        body = "f" + repr("[{r[0]},{r[1]},{q(r[2])},{q(r[3])},{q(r[4])}"
                          + values + "{q(r[5])}]")
    elif codec == "export_line":
        params = ["q", *[f"p{j}" for j in range(n)], *[f"t{j}" for j in range(n + 1)]]
        body = "f" + repr('{{"seq":{r[0]},"at":{r[1]},"actor":{q(r[2])},"action":{q(r[3])},'
                          '"object":{q(r[4])}' + values + '{q(r[5])},"this_hash":{q(r[6])}}}')
    elif codec == "wire":
        params = keys
        body = ('{"seq": r[0], "at": r[1], "actor": r[2], "action": r[3], "object": r[4],'
                f' "detail": {detail}}}')
    else:
        params = ["D", *keys]
        body = f"D({detail})"
    namespace: dict = {}
    exec(f"def factory({', '.join(params)}):\n    return lambda r: {body}\n", namespace)
    return namespace["factory"]


def _pack(seq, at, actor, action, object_id, prev_hash, this_hash, detail: dict,
          plain: bool) -> list:
    """An event's row, as a list. ``plain``: seq and at are ints and every
    other field, key and value is a str, so the row takes a compiled shape."""
    if plain:
        return [seq, at, actor, action, object_id, prev_hash, this_hash,
                _shape_id(tuple(detail)), *detail.values()]
    return [seq, at, actor, action, object_id, prev_hash, this_hash, _GENERAL,
            *[x for pair in detail.items() for x in pair]]


def _row(event: AuditEvent) -> tuple:
    """The row that stores ``event``."""
    detail = event.detail
    plain = (type(event.seq) is int and type(event.at) is int
             and all(isinstance(x, str) for x in (
                 event.actor, event.action, event.object, event.prev_hash, event.this_hash,
                 *detail, *detail.values())))
    return tuple(_pack(event.seq, event.at, event.actor, event.action, event.object,
                       event.prev_hash, event.this_hash, detail, plain))


def _event(row) -> AuditEvent:
    """A fresh event read out of a row, with a read-only detail."""
    return AuditEvent(row[0], row[1], row[2], row[3], row[4], _DETAIL[row[7]](row),
                      row[5], row[6])


def _read(rows: list[tuple], index):
    """``rows[index]`` read out as fresh events: one, or a list for a slice."""
    if isinstance(index, slice):
        return [_event(row) for row in rows[index]]
    return _event(rows[index])


def _row_hash(row) -> str:
    """The chain digest of a row: ``event_hash`` of its fields."""
    return hashlib.sha256(_HASH_INPUT[row[7]](row).encode("utf-8")).hexdigest()


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


class _EventStore(MutableSequence):
    """The ledger's rows, in ``items``, and ``verified``: the count of
    leading rows the last ``verify_chain`` passed. A read builds a fresh
    ``AuditEvent``. ``AuditLedger.append`` adds its new row to ``items``
    itself. Every other write goes through the methods here, which store
    the event as a row and lower ``verified`` to the position they touch,
    so that row and all after it are rehashed by the next verify."""

    __slots__ = ("items", "verified")

    def __init__(self) -> None:
        self.items: list[tuple] = []
        self.verified = 0

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index):
        return _read(self.items, index)

    def __iter__(self):
        return map(_event, self.items)

    def __setitem__(self, index: int, event: AuditEvent) -> None:
        self._lower(index)
        self.items[index] = _row(event)

    def __delitem__(self, index: int) -> None:
        self._lower(index)
        del self.items[index]

    def insert(self, index: int, event: AuditEvent) -> None:
        self._lower(index)
        self.items.insert(index, _row(event))

    def _lower(self, index: int) -> None:
        """Lower the watermark to the position a write at ``index`` touches.
        A write takes one position, never a slice. A negative index counts
        from the end, and one below -len is 0, as list.insert clamps it."""
        index = operator.index(index)
        if index < 0:
            index = max(index + len(self.items), 0)
        self.verified = min(self.verified, index)


class SessionTrail(Sequence):
    """One session's events in ledger order, as ``reconstruct_session``
    read them out. Indexing or iterating builds fresh ``AuditEvent``s;
    ``records`` holds the same events as the wire sends them, each seq, at,
    actor, action, object and a plain detail dict, built from the rows by
    their shapes' wire codecs."""

    __slots__ = ("_rows", "records")

    def __init__(self, rows: list[tuple], records: list[dict]):
        self._rows = rows
        self.records = records

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        return _read(self._rows, index)

    def __iter__(self):
        return map(_event, self._rows)


class AuditLedger:
    """The append-only event store. There is no update or delete operation.

    Events live in an ``_EventStore`` as rows, which the indices below
    share; a read builds a frozen ``AuditEvent`` with a read-only detail.
    The store remembers how many leading events the last ``verify_chain``
    passed.
    """

    def __init__(self, clock: SimClock):
        self._clock = clock
        self._events = _EventStore()
        self._last_hash = GENESIS_HASH
        # Session lookups read the rows themselves. Reports read only
        # per-project times, kept in ledger order; ledger time never
        # decreases, so each list is sorted and a report bisects it.
        self._by_session: dict[str, list[tuple]] = {}
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
        if detail is None:
            detail = {}
        for key, value in detail.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise TypeError("event detail must be a flat string map")
        at = self._clock.now
        rows = self._events.items
        seq = len(rows) + 1
        plain = type(at) is int and isinstance(actor, str) and isinstance(object_id, str)
        row = _pack(seq, at, actor, action, object_id, self._last_hash, "", detail, plain)
        row[6] = digest = _row_hash(row)
        row = tuple(row)
        rows.append(row)
        self._last_hash = digest
        self._index(row)
        return seq

    def _index(self, row: tuple) -> None:
        fields = _FIELDS[row[7]]
        if fields is None:
            fields = _general_fields(row)
        action, object_id = row[3], row[4]
        sid = None
        if object_id.startswith("s-") and object_id[2:].isdigit():
            sid = object_id
        elif "session" in fields:
            sid = row[fields["session"]]
        if sid is not None:
            self._by_session.setdefault(sid, []).append(row)
        if action in _REPORTED and "project" in fields:
            self._index_project(row[fields["project"]], row, fields)
        if action == "register":
            if ("netid" in fields and "affiliation" in fields
                    and row[fields["affiliation"]] == "affiliate"):
                self._affiliates.add(row[fields["netid"]])
        elif action == "project-create":
            stewards = row[fields["stewards"]] if "stewards" in fields else ""
            self._projects[object_id] = tuple(s for s in stewards.split(",") if s)
        elif action == "map":
            span = _MappingSpan(principal=row[fields["principal"]], start=row[1])
            self._spans.setdefault(row[fields["arbitrary_user"]], []).append(span)
            self._span_by_session[object_id] = span
        elif action in ("close", "revoke-forced-close"):
            span = self._span_by_session.pop(object_id, None)
            if span is not None:
                span.end = row[1]

    def _index_project(self, project: str, row: tuple, fields: dict[str, int]) -> None:
        times = self._project_times.get(project)
        if times is None:
            times = self._project_times[project] = _ProjectTimes()
        action, at = row[3], row[1]
        if action in _COUNTED:
            times.counted.setdefault(action, []).append(at)
        elif action == "map":
            mode = row[fields["mode"]] if "mode" in fields else ""
            times.maps_by_mode.setdefault(mode, []).append(at)
            if "vm" in fields:
                times.maps_by_vm.setdefault(row[fields["vm"]], []).append(at)
        elif action == "traverse":
            if "via" in fields and row[fields["via"]].startswith("exception"):
                times.exception_traversals.append(at)
        elif action == "provision":
            times.provisioned[row[4]] = at
        else:  # destroy
            times.destroyed.setdefault(row[4], at)

    # -- reading -----------------------------------------------------------

    @property
    def events(self) -> list[AuditEvent]:
        return [_event(row) for row in self._events.items]

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

    def reconstruct_session(self, session_id: str) -> SessionTrail:
        rows = self._by_session.get(session_id)
        if not rows:
            raise UnknownSession(session_id)
        codecs = _WIRE
        return SessionTrail(rows[:], [codecs[row[7]](row) for row in rows])

    def verify_chain(self) -> tuple[bool, int | None]:
        """Recompute the digests; returns (ok, first bad seq).

        The events the last call passed, up to the store's watermark, have
        not been written since, so the check starts after them, from the
        stored hash of the last one: the result is the one a rehash from
        genesis gives. Every event after the watermark is rehashed from its
        stored fields. A pass moves the watermark to the end, a failure at
        a position to that position.

        A truncated suffix is not detectable by the chain alone; that needs a
        head count stored outside the ledger.
        """
        store = self._events
        rows = store.items
        start = store.verified
        prev = rows[start - 1][6] if start else GENESIS_HASH
        for i in range(start, len(rows)):
            row = rows[i]
            if row[0] != i + 1 or row[5] != prev:
                store.verified = i
                return False, i + 1
            prev = row[6]
            if _row_hash(row) != prev:
                store.verified = i
                return False, row[0]
        store.verified = len(rows)
        return True, None

    def export_lines(self) -> list[str]:
        codecs = _EXPORT_LINE
        return [codecs[row[7]](row) for row in self._events.items]

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
