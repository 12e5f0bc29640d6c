from __future__ import annotations

import itertools

import pytest

from enclavebroker.errors import (
    DuplicateProject,
    EmptyStewards,
    PublicProjectNoGrants,
    Unauthorized,
    UnknownProject,
    UnknownUser,
)
from enclavebroker.model import AccessMode

from conftest import authenticate, make_broker, open_rdp
from oracles import access_table


class TestRegisterProject:
    def test_creates_two_empty_access_groups(self, broker):
        project = broker.policy.register_project("admin1", "opm-study", "sensitive",
                                                 {"stw1"})
        assert broker.directory.group(project.vpn_group).members == set()
        assert broker.directory.group(project.rdp_group).members == set()
        assert project.vpn_group != project.rdp_group

    def test_public_project_needs_no_grants_to_read(self, broker):
        broker.policy.register_project("admin1", "campus-maps", "public", {"stw1"})
        principal = authenticate(broker, "res3")
        assert broker.policy.check_access(principal, "campus-maps", "rdp").allowed

    def test_non_admin_rejected(self, broker):
        with pytest.raises(Unauthorized):
            broker.policy.register_project("stw1", "p", "public", {"stw1"})

    def test_duplicate(self, broker):
        with pytest.raises(DuplicateProject):
            broker.policy.register_project("admin1", "study", "public", {"stw1"})

    def test_empty_stewards(self, broker):
        with pytest.raises(EmptyStewards):
            broker.policy.register_project("admin1", "p", "public", set())

    def test_inactive_steward_rejected(self, broker):
        broker.directory.register_user("gone", "member")
        broker.directory.deactivate_user("admin1", "gone")
        with pytest.raises(UnknownUser):
            broker.policy.register_project("admin1", "p", "public", {"gone"})

    def test_projects_live_only_in_enclave_zones(self, broker):
        from enclavebroker.errors import InvalidSpec
        with pytest.raises(InvalidSpec):
            broker.policy.register_project("admin1", "p", "public", {"stw1"},
                                           zone="campus")


class TestGrants:
    def test_rdp_grant_lands_in_rdp_group(self, broker):
        broker.policy.grant_access("stw1", "study", "res1", "rdp")
        assert broker.directory.is_member("study-rdp", "res1")
        assert not broker.directory.is_member("study-vpn", "res1")

    def test_vpn_grant_lands_in_vpn_group(self, broker):
        broker.policy.grant_access("stw1", "study", "stw1", "vpn")
        assert broker.directory.is_member("study-vpn", "stw1")

    def test_non_steward_cannot_grant(self, broker):
        with pytest.raises(Unauthorized):
            broker.policy.grant_access("res2", "study", "res1", "rdp")

    def test_public_tier_rejects_grants(self, broker):
        broker.policy.register_project("admin1", "campus-maps", "public", {"stw1"})
        with pytest.raises(PublicProjectNoGrants):
            broker.policy.grant_access("stw1", "campus-maps", "res1", "rdp")

    def test_revoke_removes_membership(self, broker):
        broker.policy.grant_access("stw1", "study", "res1", "rdp")
        broker.policy.revoke_access("stw1", "study", "res1", "rdp")
        assert not broker.directory.is_member("study-rdp", "res1")

    def test_revoke_without_grant_is_noop(self, broker):
        record = broker.policy.revoke_access("stw1", "study", "res1", "rdp")
        assert not record.active

    def test_revoke_by_non_steward(self, broker):
        with pytest.raises(Unauthorized):
            broker.policy.revoke_access("res2", "study", "res1", "rdp")

    def test_revoke_force_closes_open_sessions(self, broker):
        """Replay grant -> open -> revoke and check the terminal states."""
        session, _ = open_rdp(broker, "res1", "study")
        secret = broker.sessions.credential(session.credential_id).secret
        broker.policy.revoke_access("stw1", "study", "res1", "rdp")
        assert session.state.value == "closed"
        assert broker.sessions.authenticate_to_vm(secret, session.vm_id).value == "rejected"
        trail = broker.ledger.reconstruct_session(session.id)
        assert trail[-1]["action"] == "revoke-forced-close"


class TestCheckAccess:
    def test_sensitive_ignores_roles(self, broker):
        broker.directory.group("analysts").members.add("res1")
        study = broker.policy.get_project("study")
        study.role_rules.add("analysts")  # even if misconfigured, roles never count
        principal = authenticate(broker, "res1")
        decision = broker.policy.check_access(principal, "study", "rdp")
        assert not decision.allowed
        assert decision.reason == "sensitive-explicit-only"

    def test_restricted_role_allows(self, broker):
        broker.directory.group("analysts").members.add("res1")
        principal = authenticate(broker, "res1")
        decision = broker.policy.check_access(principal, "atlas", "rdp")
        assert decision.allowed
        assert decision.reason == "role-rule"

    def test_unknown_project(self, broker):
        principal = authenticate(broker, "res1")
        with pytest.raises(UnknownProject):
            broker.policy.check_access(principal, "nope", "rdp")

    def test_every_deny_names_a_rule(self, broker):
        principal = authenticate(broker, "res1")
        for project in ("study", "atlas"):
            for mode in ("vpn", "rdp"):
                decision = broker.policy.check_access(principal, project, mode)
                assert decision.reason

    def test_exhaustive_truth_table(self):
        """All tier x grant x role x mode combinations against the table."""
        for tier, granted, role, mode in itertools.product(
                ("public", "restricted", "sensitive"), (False, True),
                (False, True), ("vpn", "rdp")):
            b = make_broker()
            b.policy.register_project("admin1", "probe", tier, {"stw1"},
                                      role_rules={"analysts"} if tier != "public" else None)
            if granted and tier != "public":
                b.policy.grant_access("stw1", "probe", "res1", mode)
            if role:
                b.directory.group("analysts").members.add("res1")
            principal = authenticate(b, "res1")
            got = b.policy.check_access(principal, "probe", mode).allowed
            want = access_table(tier, granted and tier != "public", role)
            assert got == want, (tier, granted, role, mode)


class TestAuthorizeMode:
    def test_rdp_only(self, broker):
        broker.policy.grant_access("stw1", "study", "res1", "rdp")
        principal = authenticate(broker, "res1")
        assert broker.policy.authorize_mode(principal, "study") == {AccessMode.RDP}

    def test_both_modes(self, broker):
        broker.policy.grant_access("stw1", "study", "res1", "rdp")
        broker.policy.grant_access("stw1", "study", "res1", "vpn")
        principal = authenticate(broker, "res1")
        assert broker.policy.authorize_mode(principal, "study") == {AccessMode.VPN,
                                                                    AccessMode.RDP}

    def test_neither_on_sensitive(self, broker):
        principal = authenticate(broker, "res1")
        assert broker.policy.authorize_mode(principal, "study") == set()

    def test_matches_check_access_definition(self, broker):
        broker.policy.grant_access("stw1", "study", "res1", "vpn")
        broker.directory.group("analysts").members.add("res1")
        for netid in ("res1", "res2", "stw1"):
            principal = authenticate(broker, netid)
            for project in ("study", "atlas"):
                modes = broker.policy.authorize_mode(principal, project)
                derived = {m for m in AccessMode
                           if broker.policy.check_access(principal, project, m).allowed}
                assert modes == derived

    def test_stewardship_alone_grants_nothing(self, broker):
        principal = authenticate(broker, "stw1")
        assert broker.policy.authorize_mode(principal, "study") == set()


class TestGrantLedgerConsistency:
    def test_sensitive_allow_implies_grant_event(self, broker):
        """Replay random grant/revoke traces; an allow must always have a
        grant event with no later revoke."""
        import random
        rng = random.Random(7)
        users = ["res1", "res2", "res3"]
        for _ in range(200):
            netid = rng.choice(users)
            mode = rng.choice(["vpn", "rdp"])
            if rng.random() < 0.5:
                broker.policy.grant_access("stw1", "study", netid, mode)
            else:
                broker.policy.revoke_access("stw1", "study", netid, mode)
        for netid in users:
            for mode in ("vpn", "rdp"):
                principal = authenticate(broker, netid)
                allowed = broker.policy.check_access(principal, "study", mode).allowed
                state = None
                for e in broker.ledger.events:
                    if (e.detail.get("project") == "study"
                            and e.detail.get("netid") == netid
                            and e.detail.get("mode") == mode):
                        if e.action == "grant":
                            state = True
                        elif e.action == "revoke":
                            state = False
                assert allowed == bool(state)
