from __future__ import annotations

import dataclasses
import gc
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavebroker import ledger as ledger_module
from enclavebroker.errors import (
    NoSessionAtTime,
    UnknownAction,
    UnknownArbitraryUser,
    UnknownProject,
    UnknownSession,
)
from enclavebroker.clock import SimClock
from enclavebroker.ledger import GENESIS_HASH, AuditEvent, AuditLedger, event_hash
from enclavebroker.sessions import DAY

from conftest import authenticate, make_broker, open_rdp
from oracles import recount_report, resolve_by_scan


class TestAppend:
    def test_genesis_event(self, broker):
        broker.ledger.append("admin1", "register", "x", {})
        first = broker.ledger.events[0]
        assert first.seq == 1
        assert first.prev_hash == GENESIS_HASH

    def test_seq_is_gapless(self, broker):
        n = len(broker.ledger)
        broker.ledger.append("admin1", "register", "y", {})
        assert broker.ledger.events[-1].seq == n + 1
        seqs = [e.seq for e in broker.ledger.events]
        assert seqs == list(range(1, n + 2))

    def test_unknown_action_rejected(self, broker):
        with pytest.raises(UnknownAction):
            broker.ledger.append("admin1", "frobnicate", "x", {})

    def test_detail_must_be_flat_strings(self, broker):
        with pytest.raises(TypeError):
            broker.ledger.append("admin1", "register", "x", {"nested": {"a": 1}})

    def test_append_only_surface(self, broker):
        public = {n for n in dir(broker.ledger) if not n.startswith("_")}
        assert public & {"update", "delete", "remove", "pop", "rewrite"} == set()
        assert dataclasses.fields(AuditEvent)  # events are frozen records
        event = broker.ledger.events[0] if broker.ledger.events else None
        if event is not None:
            with pytest.raises(dataclasses.FrozenInstanceError):
                event.actor = "tampered"


class TestResolveIdentity:
    def test_resolves_during_session(self, broker):
        session, _ = open_rdp(broker)
        assert broker.ledger.resolve_identity(session.arbitrary_user,
                                              session.opened_at) == "res1"

    def test_unknown_name(self, broker):
        with pytest.raises(UnknownArbitraryUser):
            broker.ledger.resolve_identity("u-00000000", 0)

    def test_before_first_session(self, broker):
        broker.clock.advance(100)
        session, _ = open_rdp(broker)
        with pytest.raises(NoSessionAtTime):
            broker.ledger.resolve_identity(session.arbitrary_user, 5)

    def test_matches_linear_scan_oracle(self, broker):
        session, _ = open_rdp(broker)
        broker.clock.advance(50)
        broker.sessions.close_session(session.id)
        lines = broker.ledger.export_lines()
        for at in (session.opened_at, session.opened_at + 25, session.closed_at):
            assert (broker.ledger.resolve_identity(session.arbitrary_user, at)
                    == resolve_by_scan(lines, session.arbitrary_user, at))


class TestReconstruct:
    def test_normal_session_shape(self, broker):
        session, _ = open_rdp(broker)
        broker.egress.attempt_clipboard(session.id, "out")
        broker.sessions.close_session(session.id)
        trail = broker.ledger.reconstruct_session(session.id)
        actions = [e.action for e in trail]
        assert actions[0] == "authn"
        assert actions[1] == "map"
        assert actions[2] == "attach"
        assert actions[-1] == "close"
        assert actions[-2] == "credential-destroy"
        seqs = [e.seq for e in trail]
        assert seqs == sorted(seqs)

    def test_force_closed_session_shape(self, broker):
        session, _ = open_rdp(broker)
        broker.policy.revoke_access("stw1", "study", "res1", "rdp")
        trail = broker.ledger.reconstruct_session(session.id)
        assert trail[-1].action == "revoke-forced-close"

    def test_unknown_session(self, broker):
        with pytest.raises(UnknownSession):
            broker.ledger.reconstruct_session("s-999999")

    def test_share_ids_are_not_sessions(self, broker):
        share = broker.enclave.create_share("study", "cifs", 1.0)
        with pytest.raises(UnknownSession):
            broker.ledger.reconstruct_session(share.id)

    def test_mapping_totality(self, broker):
        """Every session, open or closed, resolves to exactly one
        (principal, arbitrary user) pair reproducible from the ledger."""
        s1, _ = open_rdp(broker, "res1")
        broker.sessions.close_session(s1.id)
        s2, _ = open_rdp(broker, "res2")
        for session in (s1, s2):
            maps = [e for e in broker.ledger.events
                    if e.action == "map" and e.object == session.id]
            assert len(maps) == 1
            assert maps[0].detail["principal"] == session.principal
            assert maps[0].detail["arbitrary_user"] == session.arbitrary_user
            assert broker.ledger.resolve_identity(
                session.arbitrary_user, session.opened_at) == session.principal


class TestVerifyChain:
    def test_untampered(self, broker):
        open_rdp(broker)
        assert broker.ledger.verify_chain() == (True, None)

    def test_flip_byte_in_event_detail(self, broker):
        open_rdp(broker)
        target = broker.ledger._events[4]
        tampered = dataclasses.replace(
            target, detail={**target.detail, "netid": "evil"})
        broker.ledger._events[4] = tampered
        ok, bad = broker.ledger.verify_chain()
        assert not ok
        assert bad == 5

    # A field swapped for another type that writes the same digits must not
    # hash like the original: "5" is not 5, and True is not 1.
    def test_at_replaced_by_its_digits_as_a_string(self, broker):
        broker.clock.advance(42)
        seq = broker.ledger.append("admin1", "register", "x", {})
        target = broker.ledger._events[seq - 1]
        broker.ledger._events[seq - 1] = dataclasses.replace(target, at=str(target.at))
        assert broker.ledger.verify_chain() == (False, seq)

    def test_first_seq_replaced_by_true(self, broker):
        open_rdp(broker)
        broker.ledger._events[0] = dataclasses.replace(broker.ledger._events[0], seq=True)
        assert broker.ledger.verify_chain() == (False, 1)

    def test_detail_value_replaced_by_an_int(self, broker):
        seq = broker.ledger.append("admin1", "resize", "vm-1", {"cpu": "5"})
        target = broker.ledger._events[seq - 1]
        broker.ledger._events[seq - 1] = dataclasses.replace(target, detail={"cpu": 5})
        assert broker.ledger.verify_chain() == (False, seq)

    def test_truncation_caught_by_head_count(self, broker):
        open_rdp(broker)
        head = broker.ledger.head_count()
        removed = broker.ledger._events.pop()
        # the chain alone cannot see a dropped suffix; the stored head can
        assert broker.ledger.verify_chain() == (True, None)
        assert len(broker.ledger._events) != head
        broker.ledger._events.append(removed)
        assert broker.ledger.verify_chain() == (True, None)

    def test_hash_recomputes_from_fields(self, broker):
        open_rdp(broker)
        for event in broker.ledger.events:
            assert event.this_hash == event_hash(
                event.seq, event.at, event.actor, event.action, event.object,
                event.detail, event.prev_hash)

    def test_export_fields_and_order(self, broker):
        open_rdp(broker)
        line = broker.ledger.export_lines()[0]
        record = json.loads(line)
        assert list(record) == ["seq", "at", "actor", "action", "object",
                                "detail", "prev_hash", "this_hash"]
        assert record["this_hash"] == record["this_hash"].lower()


def full_rescan(ledger: AuditLedger) -> tuple[bool, int | None]:
    """The reference: rehash every event from genesis."""
    prev = GENESIS_HASH
    for i, event in enumerate(ledger.events):
        if event.seq != i + 1 or event.prev_hash != prev:
            return False, i + 1
        if event_hash(event.seq, event.at, event.actor, event.action, event.object,
                      event.detail, event.prev_hash) != event.this_hash:
            return False, event.seq
        prev = event.this_hash
    return True, None


def small_ledger(n: int) -> AuditLedger:
    clock = SimClock()
    ledger = AuditLedger(clock)
    for i in range(n):
        clock.advance(1)
        ledger.append("admin1", "register", f"user-{i}", {"n": str(i)})
    return ledger


def tampered(event: AuditEvent, how: int) -> AuditEvent:
    if how == 0:
        return dataclasses.replace(event, detail={**event.detail, "n": "evil"})
    if how == 1:
        return dataclasses.replace(event, at=event.at + 1)
    return dataclasses.replace(event, this_hash="f" * 64)


# One step: (kind, position, how). A position is reduced modulo the length.
STEPS = st.lists(st.tuples(
    st.sampled_from(["append", "verify", "tamper", "restore", "pop", "append-back",
                     "insert", "del"]),
    st.integers(0, 63), st.integers(0, 2)), max_size=30)


class TestVerifiedWatermark:
    """verify_chain starts after the events its last pass verified; every
    write through the store must pull that watermark back."""

    @settings(max_examples=500, deadline=None)
    @given(initial=st.integers(0, 8), steps=STEPS)
    def test_matches_a_full_rescan_after_every_step(self, initial, steps):
        ledger = small_ledger(initial)
        store = ledger._events
        originals: dict[int, AuditEvent] = {}  # position -> event before tamper
        removed: list[AuditEvent] = []
        for kind, position, how in steps:
            n = len(store)
            j = position % n if n else 0
            if kind == "append":
                ledger.append("admin1", "register", f"extra-{position}", {"n": str(how)})
            elif kind == "verify":
                ledger.verify_chain()
            elif kind == "tamper" and n:
                originals.setdefault(j, store[j])
                store[j] = tampered(store[j], how)
            elif kind == "restore" and n and j in originals:
                store[j] = originals.pop(j)
            elif kind == "pop" and n:
                removed.append(store.pop())
            elif kind == "append-back" and removed:
                store.append(removed.pop())
            elif kind == "insert" and n:
                store.insert(j, removed.pop() if removed else store[position % n])
            elif kind == "del" and n:
                removed.append(store[j])
                del store[j]
            assert ledger.verify_chain() == full_rescan(ledger), (kind, j)

    @pytest.fixture
    def hashed(self, monkeypatch) -> list[int]:
        """The seq of every event hashed since the list was last cleared."""
        calls: list[int] = []
        real = ledger_module._row_hash

        def counted(row):
            calls.append(row[0])
            return real(row)

        monkeypatch.setattr(ledger_module, "_row_hash", counted)
        return calls

    def test_verify_with_nothing_new_hashes_nothing(self, hashed):
        ledger = small_ledger(20)
        hashed.clear()
        assert ledger.verify_chain() == (True, None)
        assert len(hashed) == 20
        hashed.clear()
        assert ledger.verify_chain() == (True, None)
        assert hashed == []

    @pytest.mark.parametrize("k", [1, 5])
    def test_k_appends_are_all_the_next_verify_hashes(self, hashed, k):
        ledger = small_ledger(20)
        ledger.verify_chain()
        for i in range(k):
            ledger.append("admin1", "register", f"late-{i}", {})
        hashed.clear()
        assert ledger.verify_chain() == (True, None)
        assert hashed == list(range(21, 21 + k))

    @pytest.mark.parametrize("write", ["assign", "del+insert", "insert+del"])
    def test_a_write_at_j_rehashes_from_j_to_the_end(self, hashed, write):
        ledger = small_ledger(20)
        ledger.verify_chain()
        store, j = ledger._events, 7
        if write == "assign":
            store[j] = store[j]
        elif write == "del+insert":
            event = store[j]
            del store[j]
            store.insert(j, event)
        else:
            store.insert(j, store[0])
            del store[j]
        hashed.clear()
        assert ledger.verify_chain() == (True, None)
        assert hashed == list(range(j + 1, 21))

    def test_a_failure_is_found_again_and_cleared_by_a_restore(self, hashed):
        ledger = small_ledger(20)
        store = ledger._events
        ledger.verify_chain()
        original = store[12]
        store[12] = tampered(original, 0)
        assert ledger.verify_chain() == (False, 13)
        hashed.clear()
        assert ledger.verify_chain() == (False, 13)
        assert hashed == [13]
        store[12] = original
        hashed.clear()
        assert ledger.verify_chain() == (True, None)
        assert hashed == list(range(13, 21))


MUTATIONS = {
    "setitem": lambda d: d.__setitem__("n", "evil"),
    "delitem": lambda d: d.__delitem__("n"),
    "ior": lambda d: d.__ior__({"n": "evil"}),
    "clear": lambda d: d.clear(),
    "pop": lambda d: d.pop("n"),
    "popitem": lambda d: d.popitem(),
    "setdefault": lambda d: d.setdefault("m", "evil"),
    "update": lambda d: d.update(n="evil"),
}
READS = {
    "events": lambda ledger: ledger.events[0],
    "reconstruct_session": lambda ledger: ledger.reconstruct_session("s-000001")[0],
    "_events[i]": lambda ledger: ledger._events[0],
}


class TestReadOnlyDetail:
    @pytest.mark.parametrize("read", sorted(READS))
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_a_read_cannot_change_a_stored_detail(self, read, mutation):
        ledger = AuditLedger(SimClock())
        ledger.append("admin1", "attach", "s-000001", {"n": "1", "vm": "vm-1"})
        ledger.verify_chain()
        before = ledger.export_text()
        detail = READS[read](ledger).detail
        with pytest.raises(TypeError):
            MUTATIONS[mutation](detail)
        assert ledger.export_text() == before
        assert ledger.verify_chain() == (True, None)

    def test_detail_reads_like_a_plain_dict(self):
        ledger = AuditLedger(SimClock())
        ledger.append("admin1", "register", "x", {"b": "2", "a": "1"})
        detail = ledger.events[0].detail
        assert detail == {"a": "1", "b": "2"}
        assert json.dumps(detail, sort_keys=True) == '{"a": "1", "b": "2"}'
        copy = detail.copy()
        assert type(copy) is dict
        copy["a"] = "changed"
        assert ledger.events[0].detail["a"] == "1"

    def test_wire_trace_hands_out_plain_dicts(self, broker):
        session, _ = open_rdp(broker)
        before = broker.ledger.export_text()
        trace = broker.op("reconstruct_session", {"session": session.id})
        for event in trace["events"]:
            assert type(event["detail"]) is dict
            event["detail"]["n"] = "changed"
        assert broker.ledger.export_text() == before

    def test_wire_trace_reads_through_reconstruct_session(self, broker, monkeypatch):
        """The op's records are the trail's, one call to the ledger's
        reconstruct_session, so a span on that method covers the op."""
        session, _ = open_rdp(broker)
        calls = []
        real = AuditLedger.reconstruct_session

        def counted(ledger, session_id):
            calls.append(session_id)
            return real(ledger, session_id)

        monkeypatch.setattr(AuditLedger, "reconstruct_session", counted)
        trace = broker.op("reconstruct_session", {"session": session.id})
        assert calls == [session.id]
        trail = real(broker.ledger, session.id)
        assert trace["events"] == trail.records == [
            {"seq": e.seq, "at": e.at, "actor": e.actor, "action": e.action,
             "object": e.object, "detail": e.detail} for e in trail]


# Text that would break generated code if it ever reached the source:
# quotes, braces, format and escape characters, a newline, non-ASCII, and
# a Python expression.
_HOSTILE = st.one_of(
    st.text(st.sampled_from(['"', "'", "{", "}", "%", "\\", "\n", "é", "☃", "\U0001f600",
                             "k", "0", "_", "(", ")"]), max_size=6),
    st.sampled_from(["__import__('os')", "{k0}", "{q(r[2])}", "%s", "\\u0000", "'''",
                     '"""', "session", "project"]),
    st.text(max_size=4))
_JSON_SCALARS = st.one_of(_HOSTILE, st.integers(), st.booleans(), st.none())
# Detail keys of one type each: json.dumps sorts keys, and str and int keys
# do not compare.
_WRITTEN_DETAIL = st.one_of(st.dictionaries(_HOSTILE, _JSON_SCALARS, max_size=4),
                            st.dictionaries(st.integers(-3, 3), _JSON_SCALARS, max_size=3),
                            st.dictionaries(st.booleans(), _JSON_SCALARS, max_size=2))
_APPEND = st.tuples(st.just("append"), st.sampled_from(sorted(ledger_module.ACTIONS - {"map"})),
                    _HOSTILE, st.one_of(st.just("s-000001"), _HOSTILE),
                    st.dictionaries(_HOSTILE, _HOSTILE, max_size=4))
_WRITE = st.tuples(st.sampled_from(["assign", "insert"]), st.integers(0, 63),
                   st.one_of(st.integers(0, 99), st.booleans()),
                   st.one_of(st.integers(0, 99), st.booleans(), _HOSTILE),
                   st.tuples(_JSON_SCALARS, _HOSTILE, _JSON_SCALARS),
                   _WRITTEN_DETAIL, st.tuples(_HOSTILE, _HOSTILE))


def _record(seq, at, actor, action, object_id, detail, prev_hash, this_hash) -> dict:
    return {"seq": seq, "at": at, "actor": actor, "action": action, "object": object_id,
            "detail": {k: detail[k] for k in sorted(detail)}, "prev_hash": prev_hash,
            "this_hash": this_hash}


class TestRowCodecs:
    """Events are stored as rows and encoded by codecs compiled per detail
    shape; every encoding must equal the json.dumps of the same fields."""

    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(st.one_of(_APPEND, _WRITE), max_size=12))
    def test_hostile_fields_encode_as_json_dumps(self, steps):
        clock = SimClock()
        ledger = AuditLedger(clock)
        store = ledger._events
        written: list[tuple] = []   # each stored event's fields, in ledger order
        traced: list[dict] = []     # the wire records of s-000001, as appended
        last_hash = GENESIS_HASH
        for step in steps:
            if step[0] == "append":
                _, action, actor, object_id, detail = step
                clock.advance(1)
                seq = ledger.append(actor, action, object_id, detail)
                this_hash = event_hash(seq, clock.now, actor, action, object_id, detail,
                                       last_hash)
                written.append((seq, clock.now, actor, action, object_id, dict(detail),
                                last_hash, this_hash))
                last_hash = this_hash
                if object_id == "s-000001" or detail.get("session") == "s-000001":
                    traced.append({"seq": seq, "at": clock.now, "actor": actor,
                                   "action": action, "object": object_id,
                                   "detail": dict(detail)})
            else:
                kind, position, seq, at, (actor, action, object_id), detail, hashes = step
                fields = (seq, at, actor, action, object_id, detail, *hashes)
                j = position % (len(written) + 1)
                if kind == "assign" and written:
                    j = position % len(written)
                    store[j] = AuditEvent(*fields)
                    written[j] = fields
                else:
                    store.insert(j, AuditEvent(*fields))
                    written.insert(j, fields)
            lines = ledger.export_lines()
            assert lines == [json.dumps(_record(*f), separators=(",", ":")) for f in written]
            events = ledger.events
            assert [dataclasses.astuple(e) for e in events] == [tuple(f) for f in written]
            assert [list(e.detail.items()) for e in events] == [list(f[5].items())
                                                                for f in written]
            if traced:
                records = ledger.reconstruct_session("s-000001").records
                assert records == traced
                assert [list(r["detail"]) for r in records] == [list(r["detail"])
                                                               for r in traced]
            assert ledger.verify_chain() == full_rescan(ledger)

    def test_stored_rows_are_untracked(self, broker):
        """Rows of str-only details hold only ints and strs, so a collection
        untracks them: stored events cost the collector nothing."""
        for netid in ("res1", "res2"):
            session, _ = open_rdp(broker, netid)
            broker.egress.attempt_clipboard(session.id, "out")
            broker.sessions.close_session(session.id)
        broker.ledger.append("admin1", "register", "x", {})
        gc.collect()
        rows = broker.ledger._events.items
        assert len({row[7] for row in rows}) > 5  # several detail shapes
        assert [row for row in rows if gc.is_tracked(row)] == []


class TestExportText:
    def test_empty_ledger_exports_nothing(self):
        ledger = AuditLedger(SimClock())
        assert ledger.export_text() == "".join(l + "\n" for l in ledger.export_lines()) == ""

    def test_text_is_every_line_with_its_newline(self, broker):
        open_rdp(broker)
        lines = broker.ledger.export_lines()
        assert len(lines) > 1
        assert broker.ledger.export_text() == "".join(l + "\n" for l in lines)

    def test_export_holds_its_text_once(self):
        """At the peak, the lines and the text joined from them are alive,
        and no second copy of the text."""
        clock = SimClock()
        ledger = AuditLedger(clock)
        for i in range(2000):
            clock.advance(1)
            ledger.append("admin1", "register", f"user-{i:04d}", {"affiliation": "member"})
        tracemalloc.start()
        try:
            text = ledger.export_text()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.6 * len(text)


class TestComplianceReport:
    def test_quiet_period_is_all_zero(self, broker):
        report = broker.ledger.compliance_report("study", 10_000, 20_000)
        assert report.sessions_by_mode == {"vpn": 0, "rdp": 0}
        assert report.egress_allowed == 0
        assert report.egress_denied == 0
        assert report.grants == 0

    def test_counts_match_replayed_scenario(self, broker):
        s1, _ = open_rdp(broker, "res1")
        broker.egress.attempt_file_egress(s1.id, "a.csv")
        broker.egress.attempt_clipboard(s1.id, "out")
        broker.sessions.close_session(s1.id)
        s2, _ = open_rdp(broker, "res2")
        broker.sessions.close_session(s2.id)
        s3, _ = open_rdp(broker, "res3")
        broker.sessions.close_session(s3.id)
        report = broker.ledger.compliance_report("study", 0, broker.clock.now)
        assert report.sessions_by_mode["rdp"] == 3
        assert report.egress_denied == 2

    def test_matches_recount_oracle(self, broker):
        s1, _ = open_rdp(broker, "res1")
        broker.egress.attempt_file_egress(s1.id, "a.csv")
        broker.sessions.close_session(s1.id)
        broker.enclave.provision_vm("study", "research-subnet", 4, 16)  # idle
        report = broker.ledger.compliance_report("study", 0, broker.clock.now)
        expected = recount_report(broker.ledger.export_lines(), "study",
                                  0, broker.clock.now)
        assert report.sessions_by_mode == expected["sessions_by_mode"]
        assert report.egress_allowed == expected["egress_allowed"]
        assert report.egress_denied == expected["egress_denied"]
        assert report.exception_traversals == expected["exception_traversals"]
        assert report.grants == expected["grants"]
        assert report.revokes == expected["revokes"]
        assert report.efficiency_flags == expected["efficiency_flags"]

    def test_idle_vm_flagged(self, broker):
        idle = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        session, _ = open_rdp(broker)
        report = broker.ledger.compliance_report("study", 0, broker.clock.now)
        assert idle.id in report.efficiency_flags
        assert session.vm_id not in report.efficiency_flags

    def test_unknown_project(self, broker):
        with pytest.raises(UnknownProject):
            broker.ledger.compliance_report("nope", 0, 10)

    def test_affiliate_steward_flagged(self):
        b = make_broker()
        b.directory.register_user("vis1", "affiliate", "stw1", mfa_secret="mfa-vis1")
        b.policy.register_project("admin1", "guest-led", "restricted", {"vis1"})
        report = b.ledger.compliance_report("guest-led", 0, b.clock.now)
        assert report.affiliate_stewards == ["vis1"]

    def test_matches_recount_oracle_across_windows(self):
        """The per-project index answers every window as a full rescan does:
        an affiliate steward, an idle VM, a VM destroyed mid-history, and
        another project's sessions interleaved."""
        b = make_broker()
        b.directory.register_user("vis1", "affiliate", "stw1", mfa_secret="mfa-vis1")
        b.policy.register_project("admin1", "guest-led", "restricted", {"stw1", "vis1"},
                                  zone="research-subnet")
        b.clock.advance(DAY)
        idle = b.enclave.provision_vm("guest-led", "research-subnet", 4, 16)
        b.clock.advance(DAY)
        first, _ = open_rdp(b, "res1", "guest-led")
        b.egress.attempt_file_egress(first.id, "a.csv")
        b.egress.attempt_clipboard(first.id, "out")
        b.sessions.close_session(first.id)
        elsewhere, _ = open_rdp(b, "res2", "study")
        b.clock.advance(3 * DAY)
        b.enclave.destroy_vm(first.vm_id)
        b.sessions.close_session(elsewhere.id)
        b.clock.advance(3 * DAY)
        second, _ = open_rdp(b, "res2", "guest-led")
        b.policy.revoke_access("stw1", "guest-led", "res2", "rdp")
        b.clock.advance(10 * DAY)
        third, _ = open_rdp(b, "res3", "guest-led")
        b.sessions.close_session(third.id)
        now = b.clock.now

        lines = b.ledger.export_lines()
        windows = [(0, now), (now - 7 * DAY, now), (4 * DAY, 10 * DAY),
                   (-DAY, -1), (now, 0)]
        for start, end in windows:
            report = b.ledger.compliance_report("guest-led", start, end).to_wire()
            expected = recount_report(lines, "guest-led", start, end)
            assert {k: report[k] for k in expected} == expected, (start, end)
            assert report["affiliate_stewards"] == ["vis1"]
        whole = b.ledger.compliance_report("guest-led", 0, now)
        assert whole.efficiency_flags == [idle.id]
        assert whole.sessions_by_mode["rdp"] == 3
        middle = b.ledger.compliance_report("guest-led", 4 * DAY, 10 * DAY)
        assert middle.efficiency_flags == [idle.id, first.vm_id]

    def test_matches_recount_with_traversals_and_a_resumed_vm(self):
        """What the replayed property history lacks: exception traversals
        at several times, a traverse that came through no exception, and a
        retained VM that hosts two sessions a day apart. Windows cover each
        event and the gap between the two sessions, in which the VM hosted
        none although it had sessions before and after."""
        b = make_broker()
        target = b.enclave.provision_vm("study", "research-subnet", 4, 16)
        b.op("register_exception", {"actor": "admin1", "service": "https", "src": "campus",
                                    "dst": target.id, "documented_by": "inbound"})
        for _ in range(3):
            assert b.check_reachable("campus", target.id, "https").allowed
            b.clock.advance(3600)
        b.ledger.append("broker", "traverse", target.id, {
            "via": "gateway:gw-research-jump", "service": "rdp", "project": "study",
            "path": "campus>gw-research-jump"})
        first, _ = open_rdp(b, "res1")
        b.sessions.close_session(first.id)
        closed_at = b.clock.now
        b.clock.advance(DAY)
        second, _ = b.sessions.resume_session(authenticate(b, "res1"), "study", "rdp", False)
        b.check_reachable("campus", target.id, "https")
        b.sessions.close_session(second.id)
        b.clock.advance(DAY)
        now = b.clock.now

        lines = b.ledger.export_lines()
        events = [json.loads(line) for line in lines]
        study = [e for e in events if e["detail"].get("project") == "study"]
        via = [e["detail"]["via"] for e in study if e["action"] == "traverse"]
        assert sum(v.startswith("exception") for v in via) == 4
        assert len(via) == 5
        maps = [e for e in study if e["action"] == "map"]
        assert second.vm_id == first.vm_id and [e["detail"]["vm"] for e in maps] == [
            first.vm_id, first.vm_id]

        windows = [(0, now), (closed_at + 1, closed_at + DAY - 1), (now, 0),
                   (now + 1, now + DAY), (-DAY, -1)]
        for t in sorted({e["at"] for e in study}):
            windows += [(t, t), (t - 1, t + 1), (t + 1, now), (0, t - 1)]
        for start, end in windows:
            report = b.ledger.compliance_report("study", start, end).to_wire()
            expected = recount_report(lines, "study", start, end)
            assert {k: report[k] for k in expected} == expected, (start, end)
        gap = b.ledger.compliance_report("study", closed_at + 1, closed_at + DAY - 1)
        assert gap.efficiency_flags == sorted([target.id, first.vm_id])
        assert b.ledger.compliance_report("study", 0, now).exception_traversals == 4


class TestTraceabilityTotality:
    def test_every_arbitrary_actor_event_resolves(self, broker):
        for netid in ("res1", "res2", "res3"):
            session, _ = open_rdp(broker, netid)
            broker.egress.attempt_file_egress(session.id, "x.csv")
            broker.sessions.close_session(session.id)
        for event in broker.ledger.events:
            if event.actor.startswith("u-"):
                netid = broker.ledger.resolve_identity(event.actor, event.at)
                assert netid in ("res1", "res2", "res3")
