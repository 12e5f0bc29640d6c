from __future__ import annotations

import itertools

import pytest

from enclavebroker.errors import (
    AlreadyAdjudicated,
    EmptyPayload,
    EmptyRationale,
    SelfAdjudication,
    SessionClosed,
    Unauthorized,
    UnknownSession,
)
from enclavebroker.egress import ExportStatus, decide_clipboard, decide_file
from enclavebroker.model import AccessMode, Verdict

from conftest import authenticate, open_rdp
from oracles import clipboard_table, file_egress_table


def open_vpn(broker, netid="stw1", project="study"):
    broker.policy.grant_access("stw1", project, netid, "vpn")
    principal = authenticate(broker, netid)
    return broker.sessions.open_session(principal, project, "vpn", True)


class TestClipboard:
    def test_rdp_out_denied(self, broker):
        session, _ = open_rdp(broker)
        decision = broker.egress.attempt_clipboard(session.id, "out")
        assert not decision.allowed

    def test_rdp_in_denied_too(self, broker):
        session, _ = open_rdp(broker)
        assert not broker.egress.attempt_clipboard(session.id, "in").allowed

    def test_vpn_out_allowed(self, broker):
        session, _ = open_vpn(broker)
        assert broker.egress.attempt_clipboard(session.id, "out").allowed

    def test_closed_session(self, broker):
        session, _ = open_rdp(broker)
        broker.sessions.close_session(session.id)
        with pytest.raises(SessionClosed):
            broker.egress.attempt_clipboard(session.id, "out")

    def test_unknown_session(self, broker):
        with pytest.raises(UnknownSession):
            broker.egress.attempt_clipboard("s-424242", "out")


class TestFileEgress:
    def test_rdp_denied_any_object(self, broker):
        session, _ = open_rdp(broker)
        decision = broker.egress.attempt_file_egress(session.id, "dataset.csv")
        assert not decision.allowed
        assert decision.reason == "rdp-no-egress"

    def test_vpn_managed_allowed(self, broker):
        session, _ = open_vpn(broker)
        assert broker.egress.attempt_file_egress(session.id, "summary.pdf").allowed

    def test_decision_tables_match_oracle(self):
        """The pure tables drive the session path; fuzz the 2x2 product."""
        for mode, managed in itertools.product(("vpn", "rdp"), (False, True)):
            verdict, _ = decide_file(AccessMode(mode), managed)
            assert (verdict is Verdict.ALLOW) == file_egress_table(mode, managed)
            clip, _ = decide_clipboard(AccessMode(mode))
            assert (clip is Verdict.ALLOW) == clipboard_table(mode)

    def test_attempts_logged_one_event_each(self, broker):
        session, _ = open_rdp(broker)
        before = len(broker.ledger)
        broker.egress.attempt_file_egress(session.id, "a.csv")
        broker.egress.attempt_clipboard(session.id, "out")
        events = broker.ledger.events[before:]
        assert [e.action for e in events] == ["egress-deny", "egress-deny"]

    def test_attempt_attributed_to_arbitrary_user(self, broker):
        session, _ = open_rdp(broker)
        broker.egress.attempt_file_egress(session.id, "a.csv")
        event = broker.ledger.events[-1]
        assert event.actor == session.arbitrary_user
        resolved = broker.ledger.resolve_identity(event.actor, event.at)
        assert resolved == session.principal


class TestExport:
    def test_rdp_user_submits_pending_request(self, broker):
        session, _ = open_rdp(broker)
        request = broker.egress.submit_export(session.id, "results-model.tar")
        assert request.status.value == "pending"
        assert request.requester == "res1"

    def test_empty_payload(self, broker):
        session, _ = open_rdp(broker)
        with pytest.raises(EmptyPayload):
            broker.egress.submit_export(session.id, "  ")

    def test_duplicate_submissions_are_independent(self, broker):
        session, _ = open_rdp(broker)
        first = broker.egress.submit_export(session.id, "results.tar")
        second = broker.egress.submit_export(session.id, "results.tar")
        assert first.id != second.id
        pending = [r for r in broker.egress._requests.values()
                   if r.status is ExportStatus.PENDING and r.project_id == "study"]
        assert len(pending) == 2

    def test_broker_approves_with_token(self, broker):
        session, _ = open_rdp(broker)
        request = broker.egress.submit_export(session.id, "results.tar")
        done = broker.egress.adjudicate_export("broker1", request.id, "approved",
                                               "matches the data use agreement")
        assert done.status.value == "approved"
        assert done.release_token
        event = broker.ledger.events[-1]
        assert event.action == "export-adjudicate"
        assert event.detail["release_token"] == done.release_token

    def test_denied_request_issues_no_token(self, broker):
        session, _ = open_rdp(broker)
        request = broker.egress.submit_export(session.id, "raw-rows.csv")
        done = broker.egress.adjudicate_export("broker1", request.id, "denied",
                                               "raw microdata cannot leave")
        assert done.release_token is None

    def test_self_adjudication(self, broker):
        broker.policy.get_project("study").brokers.add("res1")
        session, _ = open_rdp(broker, "res1")
        request = broker.egress.submit_export(session.id, "results.tar")
        with pytest.raises(SelfAdjudication):
            broker.egress.adjudicate_export("res1", request.id, "approved", "mine")

    def test_non_broker_rejected(self, broker):
        session, _ = open_rdp(broker)
        request = broker.egress.submit_export(session.id, "results.tar")
        with pytest.raises(Unauthorized):
            broker.egress.adjudicate_export("stw1", request.id, "approved", "ok")

    def test_terminal_state(self, broker):
        session, _ = open_rdp(broker)
        request = broker.egress.submit_export(session.id, "results.tar")
        broker.egress.adjudicate_export("broker1", request.id, "approved", "fine")
        with pytest.raises(AlreadyAdjudicated):
            broker.egress.adjudicate_export("broker1", request.id, "denied", "again")

    def test_empty_rationale(self, broker):
        session, _ = open_rdp(broker)
        request = broker.egress.submit_export(session.id, "results.tar")
        with pytest.raises(EmptyRationale):
            broker.egress.adjudicate_export("broker1", request.id, "approved", "")


class TestRdpTotality:
    def test_no_rdp_allow_across_random_traces(self, broker):
        import random
        rng = random.Random(5)
        session, _ = open_rdp(broker)
        before = len(broker.ledger)
        attempts = 100
        for _ in range(attempts):
            if rng.random() < 0.5:
                decision = broker.egress.attempt_clipboard(session.id,
                                                           rng.choice(["in", "out"]))
            else:
                decision = broker.egress.attempt_file_egress(session.id, "f")
            assert not decision.allowed
        for event in broker.ledger.events:
            if event.action == "egress-allow":
                assert event.detail["mode"] != "rdp"
        # exactly one ledger event per attempt, allowed or denied
        logged = [e for e in broker.ledger.events[before:]
                  if e.action in ("egress-allow", "egress-deny")]
        assert len(logged) == attempts
