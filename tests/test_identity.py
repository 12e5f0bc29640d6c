from __future__ import annotations

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavebroker.errors import (
    AssertionExpired,
    BrokerError,
    DuplicateId,
    DuplicateNetid,
    InvalidSponsor,
    MfaFailed,
    MfaRequired,
    MissingSponsor,
    ShadowGroupImmutable,
    Unauthorized,
    UnknownGroup,
    UnknownProject,
    UnknownUser,
    UnmappedSubject,
    UntrustedIssuer,
)
from enclavebroker.identity import Affiliation, FederatedAssertion, GroupKind

from conftest import authenticate, directory_issues, make_broker


class TestRegisterUser:
    def test_member_needs_no_sponsor(self, broker):
        user = broker.directory.register_user("ab123", "member")
        assert user.sponsor is None
        assert user.active

    def test_affiliate_records_sponsor(self, broker):
        broker.directory.register_user("ab123", "member")
        user = broker.directory.register_user("xy999", "affiliate", "ab123")
        assert user.sponsor == "ab123"
        assert user.affiliation is Affiliation.AFFILIATE

    def test_affiliate_without_sponsor(self, broker):
        with pytest.raises(MissingSponsor):
            broker.directory.register_user("zz000", "affiliate")

    def test_duplicate_netid(self, broker):
        broker.directory.register_user("ab123", "member")
        with pytest.raises(DuplicateNetid):
            broker.directory.register_user("ab123", "member")

    def test_sponsor_must_exist(self, broker):
        with pytest.raises(InvalidSponsor):
            broker.directory.register_user("xy999", "affiliate", "ghost")

    def test_sponsor_must_be_active_member(self, broker):
        broker.directory.register_user("m1", "member")
        broker.directory.register_user("a1", "affiliate", "m1")
        # an affiliate cannot sponsor
        with pytest.raises(InvalidSponsor):
            broker.directory.register_user("a2", "affiliate", "a1")
        broker.directory.deactivate_user("admin1", "m1")
        with pytest.raises(InvalidSponsor):
            broker.directory.register_user("a3", "affiliate", "m1")

    def test_registration_is_audited(self, broker):
        before = len(broker.ledger)
        broker.directory.register_user("ab123", "member")
        events = broker.ledger.events[before:]
        assert [e.action for e in events] == ["register"]

    def test_sponsor_deactivation_cascades(self, broker):
        broker.directory.register_user("m1", "member")
        broker.directory.register_user("a1", "affiliate", "m1")
        broker.directory.register_user("a2", "affiliate", "m1")
        deactivated = broker.directory.deactivate_user("admin1", "m1")
        assert deactivated == ["m1", "a1", "a2"]
        assert not broker.directory.user("a1").active

    def test_sponsor_resolution_terminates_at_member(self, broker):
        broker.directory.register_user("m1", "member")
        broker.directory.register_user("a1", "affiliate", "m1")
        for netid in broker.directory.netids():
            user = broker.directory.user(netid)
            if user.affiliation is Affiliation.AFFILIATE:
                sponsor = broker.directory.user(user.sponsor)
                assert sponsor is not None
                assert sponsor.affiliation is Affiliation.MEMBER
        assert directory_issues(broker.directory) == []


class TestFederation:
    def setup_assertion(self, broker, **kw):
        broker.directory.register_user("alice-aff", "member", mfa_secret="x")
        broker.directory.add_trusted_issuer("idp.uni-a")
        broker.directory.map_subject("idp.uni-a", "alice", "alice-aff")
        defaults = dict(issuer="idp.uni-a", subject="alice", issued_at=10,
                        expires_at=100, mfa_satisfied=True)
        defaults.update(kw)
        return FederatedAssertion(**defaults)

    def test_mapped_subject(self, broker):
        assertion = self.setup_assertion(broker)
        broker.clock.advance(50)
        principal = broker.directory.assert_federated(assertion)
        assert principal.netid == "alice-aff"
        assert principal.method.value == "federated"
        assert principal.mfa_passed

    def test_untrusted_issuer(self, broker):
        self.setup_assertion(broker)
        evil = FederatedAssertion(issuer="idp.evil", subject="alice", issued_at=10,
                                  expires_at=100, mfa_satisfied=True)
        broker.clock.advance(50)
        with pytest.raises(UntrustedIssuer):
            broker.directory.assert_federated(evil)

    def test_expired_assertion(self, broker):
        assertion = self.setup_assertion(broker)
        broker.clock.advance(101)
        with pytest.raises(AssertionExpired):
            broker.directory.assert_federated(assertion)

    def test_not_yet_valid_assertion(self, broker):
        assertion = self.setup_assertion(broker)
        broker.clock.advance(5)
        with pytest.raises(AssertionExpired):
            broker.directory.assert_federated(assertion)

    def test_unmapped_subject(self, broker):
        self.setup_assertion(broker)
        stranger = FederatedAssertion(issuer="idp.uni-a", subject="bob", issued_at=10,
                                      expires_at=100, mfa_satisfied=True)
        broker.clock.advance(50)
        with pytest.raises(UnmappedSubject):
            broker.directory.assert_federated(stranger)

    def test_mfa_flag_copies(self, broker):
        assertion = self.setup_assertion(broker, mfa_satisfied=False)
        broker.clock.advance(50)
        principal = broker.directory.assert_federated(assertion)
        assert not principal.mfa_passed


class TestMfa:
    def test_correct_proof(self, broker):
        principal = broker.directory.verify_mfa("res1", "mfa-res1")
        assert principal.mfa_passed

    def test_missing_proof(self, broker):
        with pytest.raises(MfaRequired):
            broker.directory.verify_mfa("res1", None)

    def test_wrong_proof(self, broker):
        with pytest.raises(MfaFailed):
            broker.directory.verify_mfa("res1", "nope")

    def test_unknown_user(self, broker):
        with pytest.raises(UnknownUser):
            broker.directory.verify_mfa("ghost", "x")

    def test_unenrolled_user_fails(self, broker):
        broker.directory.register_user("plain", "member")
        with pytest.raises(MfaFailed):
            broker.directory.verify_mfa("plain", "anything")


class TestMembership:
    def test_steward_adds_to_role_group(self, broker):
        broker.directory.create_group("study-extra", GroupKind.ROLE, "study")
        group = broker.policy.set_membership("stw1", "study-extra", "res1", "add")
        assert "res1" in group.members

    def test_non_steward_rejected(self, broker):
        broker.directory.create_group("study-extra", GroupKind.ROLE, "study")
        with pytest.raises(Unauthorized):
            broker.policy.set_membership("res2", "study-extra", "res1", "add")

    def test_remove_non_member_is_noop(self, broker):
        broker.directory.create_group("study-extra", GroupKind.ROLE, "study")
        before = set(broker.directory.group("study-extra").members)
        group = broker.policy.set_membership("stw1", "study-extra", "res1", "remove")
        assert set(group.members) == before
        last = broker.ledger.events[-1]
        assert last.action == "membership"
        assert last.detail["result"] == "no-op"

    def test_idempotent_add(self, broker):
        broker.directory.create_group("study-extra", GroupKind.ROLE, "study")
        broker.policy.set_membership("stw1", "study-extra", "res1", "add")
        once = set(broker.directory.group("study-extra").members)
        broker.policy.set_membership("stw1", "study-extra", "res1", "add")
        assert set(broker.directory.group("study-extra").members) == once

    def test_unknown_group(self, broker):
        with pytest.raises(UnknownGroup):
            broker.policy.set_membership("admin1", "nope", "res1", "add")

    def test_unknown_user(self, broker):
        broker.directory.create_group("study-extra", GroupKind.ROLE, "study")
        with pytest.raises(UnknownUser):
            broker.policy.set_membership("stw1", "study-extra", "ghost", "add")

    def test_shadow_groups_immutable(self, broker):
        broker.directory.shadow_attach("analysts", "u-deadbeef")
        with pytest.raises(ShadowGroupImmutable):
            broker.policy.set_membership("admin1", "shadow:analysts", "res1", "add")

    def test_steward_adds_to_project_vpn_group(self, broker):
        """Access-group edits work for stewards and land a grant event."""
        group = broker.policy.set_membership("stw1", "study-vpn", "res1", "add")
        assert "res1" in group.members
        grants = [e for e in broker.ledger.events if e.action == "grant"]
        assert grants and grants[-1].detail == {"project": "study", "netid": "res1",
                                                "mode": "vpn"}

    def test_mode_group_edits_follow_grant_semantics(self, broker):
        # even an admin cannot grant; only stewards control data access
        with pytest.raises(Unauthorized):
            broker.policy.set_membership("admin1", "study-rdp", "res1", "add")
        with pytest.raises(Unauthorized):
            broker.policy.set_membership("res2", "study-rdp", "res1", "add")

    def test_op_on_access_group_records_membership_then_grant(self, broker):
        before = len(broker.ledger)
        out = broker.op("set_membership", {"actor": "stw1", "group": "study-rdp",
                                           "netid": "res1", "action": "add"})
        assert out == {"group": "study-rdp", "members": ["res1"]}
        added = broker.ledger.events[before:]
        assert [e.action for e in added] == ["membership", "grant"]
        assert added[1].detail == {"project": "study", "netid": "res1", "mode": "rdp"}

    def test_grant_on_role_group_named_like_a_mode_group(self, broker):
        # A role group that predates its project never stands in for the
        # project's access group: the project is refused, so there is
        # nothing to grant on.
        broker.directory.create_group("pilot-vpn", GroupKind.ROLE)
        with pytest.raises(DuplicateId, match="^group pilot-vpn$"):
            broker.policy.register_project("admin1", "pilot", "restricted", {"stw1"})
        with pytest.raises(UnknownProject):
            broker.op("grant_access", {"actor": "stw1", "project": "pilot",
                                       "netid": "res1", "mode": "vpn"})

    def test_access_group_without_project(self, broker):
        broker.directory.create_group("orphan-vpn", GroupKind.ACCESS_VPN)
        with pytest.raises(Unauthorized,
                           match="^access-mode groups change only via grant/revoke$"):
            broker.op("set_membership", {"actor": "admin1", "group": "orphan-vpn",
                                         "netid": "res1", "action": "add"})


class TestGroupNames:
    """A group name is claimed once, and ``shadow:`` names belong to the
    session broker, so a project's access groups are always its own."""

    @pytest.mark.parametrize("taken, other", [("lab-vpn", "lab-rdp"),
                                              ("lab-rdp", "lab-vpn")])
    def test_register_project_refuses_a_taken_access_group_name(self, broker, taken, other):
        broker.op("create_group", {"actor": "admin1", "name": taken, "kind": "role"})
        broker.op("set_membership", {"actor": "admin1", "group": taken,
                                     "netid": "res3", "action": "add"})
        before = broker.ledger.export_text()
        with pytest.raises(DuplicateId, match=f"^group {taken}$"):
            broker.op("register_project", {"actor": "admin1", "id": "lab",
                                           "classification": "sensitive",
                                           "stewards": ["stw1"]})
        assert "lab" not in {p.id for p in broker.policy.projects()}
        assert not broker.directory.has_group(other)
        assert broker.directory.group(taken).members == {"res3"}
        assert broker.ledger.export_text() == before

    @pytest.mark.parametrize("name, kind", [("analysts", "role"), ("analysts", "access-vpn"),
                                            ("study-vpn", "role"), ("study-rdp", "access-rdp")])
    def test_create_group_refuses_a_taken_name(self, broker, name, kind):
        held = broker.directory.group(name)
        with pytest.raises(DuplicateId) as caught:
            broker.op("create_group", {"actor": "admin1", "name": name, "kind": kind})
        assert caught.value.code == "duplicate-id"
        assert broker.directory.group(name) is held

    @pytest.mark.parametrize("name", ["shadow:analysts", "shadow:study-rdp", "shadow:new"])
    def test_create_group_refuses_a_shadow_name(self, broker, name):
        broker.directory.shadow_attach("analysts", "u-deadbeef")
        held = broker.directory.group(name)
        with pytest.raises(ShadowGroupImmutable) as caught:
            broker.op("create_group", {"actor": "admin1", "name": name, "kind": "role"})
        assert caught.value.code == "shadow-group-immutable"
        assert broker.directory.group(name) is held


_PROJECT_IDS = ["lab", "pilot"]
_GROUP_NAMES = [f"{p}-{m}" for p in _PROJECT_IDS for m in ("vpn", "rdp")] + ["extra"]
_NETIDS = ["res1", "res2", "res3"]


def _step(op: str, **args):
    return op, {k: v for k, v in args.items() if v is not None}


_ACCESS_STEPS = st.one_of(
    st.builds(partial(_step, "create_group", actor="admin1"),
              name=st.sampled_from(_GROUP_NAMES),
              kind=st.sampled_from(["role", "access-vpn", "access-rdp"]),
              owning_project=st.sampled_from([None, *_PROJECT_IDS])),
    st.builds(partial(_step, "set_membership"), actor=st.sampled_from(["admin1", "stw1"]),
              group=st.sampled_from(_GROUP_NAMES), netid=st.sampled_from(_NETIDS),
              action=st.sampled_from(["add", "remove"])),
    st.builds(partial(_step, "register_project", actor="admin1", stewards=["stw1"]),
              id=st.sampled_from(_PROJECT_IDS),
              classification=st.sampled_from(["sensitive", "restricted", "public"])),
    st.builds(partial(_step, actor="stw1"),
              st.sampled_from(["grant_access", "revoke_access"]),
              project=st.sampled_from(_PROJECT_IDS), netid=st.sampled_from(_NETIDS),
              mode=st.sampled_from(["vpn", "rdp"])),
)


@given(steps=st.lists(_ACCESS_STEPS, max_size=12))
@settings(max_examples=300, deadline=None)
def test_access_groups_hold_exactly_the_granted(steps):
    """After every step, each project's ``<id>-vpn`` and ``<id>-rdp`` hold
    exactly the netids whose last grant or revoke for that project and mode
    is a grant."""
    broker = make_broker()
    last: dict[tuple[str, str, str], str] = {}
    seen = len(broker.ledger)
    for op, args in steps:
        try:
            broker.op(op, args)
        except BrokerError:
            pass
        for event in broker.ledger.events[seen:]:
            if event.action in ("grant", "revoke"):
                detail = event.detail
                last[detail["project"], detail["mode"], detail["netid"]] = event.action
        seen = len(broker.ledger)
        for project in broker.policy.projects():
            for mode in ("vpn", "rdp"):
                granted = {netid for (p, m, netid), action in last.items()
                           if p == project.id and m == mode and action == "grant"}
                assert broker.directory.group(f"{project.id}-{mode}").members == granted


class TestMfaGate:
    """No operation accepts a principal whose MFA has not passed, except
    the verifier itself."""

    def test_every_principal_consumer_rejects_unverified(self, broker):
        broker.policy.grant_access("stw1", "study", "res1", "rdp")
        stale = authenticate(broker, "res1")
        stale.mfa_passed = False
        consumers = [
            lambda: broker.policy.check_access(stale, "study", "rdp"),
            lambda: broker.policy.authorize_mode(stale, "study"),
            lambda: broker.sessions.open_session(stale, "study", "rdp", False),
            lambda: broker.sessions.resume_session(stale, "study", "rdp", False),
        ]
        for call in consumers:
            with pytest.raises(MfaRequired):
                call()
