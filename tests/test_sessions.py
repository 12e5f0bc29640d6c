from __future__ import annotations

import json
import random
import re
from collections import Counter

import pytest

from enclavebroker.configio import build_broker
from enclavebroker.enclave import VmState
from enclavebroker.errors import (
    AccessDenied,
    CredentialAlreadyActive,
    MfaRequired,
    NoPath,
    RetentionExpired,
    SessionAlreadyClosed,
    SessionAlreadyOpen,
    UnknownEndpoint,
    UnmanagedEndpoint,
    VmUnavailable,
)
from enclavebroker.loadgen import build_directory, build_scenario, build_topology
from enclavebroker.sessions import AuthOutcome, DAY, SessionState

from conftest import (
    authenticate,
    can_read_share,
    make_broker,
    open_rdp,
    open_sessions,
    shadow_members,
)


class TestOpenSession:
    def test_first_session_gets_fresh_vm_and_alias(self, broker):
        session, view = open_rdp(broker)
        assert re.fullmatch(r"u-[0-9a-f]{8}", session.arbitrary_user)
        assert session.state is SessionState.OPEN
        credential = broker.sessions.credential(session.credential_id)
        assert broker.sessions.authenticate_to_vm(credential.secret, session.vm_id) \
            is AuthOutcome.ACCEPTED
        wire = view.to_wire()
        assert set(wire) == {"session_id", "vm_id", "gateway_path", "mode"}
        assert credential.secret not in json.dumps(wire)

    def test_alias_never_collides_with_netids(self, broker):
        session, _ = open_rdp(broker)
        assert not broker.directory.has_user(session.arbitrary_user)

    def test_vpn_from_unmanaged_endpoint(self, broker):
        broker.policy.grant_access("stw1", "study", "stw1", "vpn")
        principal = authenticate(broker, "stw1")
        with pytest.raises(UnmanagedEndpoint):
            broker.sessions.open_session(principal, "study", "vpn", False)

    def test_vpn_from_managed_endpoint(self, broker):
        broker.policy.grant_access("stw1", "study", "stw1", "vpn")
        principal = authenticate(broker, "stw1")
        session, _ = broker.sessions.open_session(principal, "study", "vpn", True)
        assert session.mode.value == "vpn"

    def test_without_mfa(self, broker):
        broker.policy.grant_access("stw1", "study", "res1", "rdp")
        principal = authenticate(broker, "res1")
        principal.mfa_passed = False
        with pytest.raises(MfaRequired):
            broker.sessions.open_session(principal, "study", "rdp", False)

    def test_without_grant(self, broker):
        principal = authenticate(broker, "res1")
        with pytest.raises(AccessDenied):
            broker.sessions.open_session(principal, "study", "rdp", False)

    def test_second_concurrent_open_denied(self, broker):
        open_rdp(broker)
        principal = authenticate(broker, "res1")
        with pytest.raises(SessionAlreadyOpen):
            broker.sessions.open_session(principal, "study", "rdp", False)

    def test_second_open_in_the_other_mode_denied(self, broker):
        first, _ = open_rdp(broker)
        broker.policy.grant_access("stw1", "study", "res1", "vpn")
        principal = authenticate(broker, "res1")
        with pytest.raises(SessionAlreadyOpen, match=f"^{first.id}$"):
            broker.sessions.open_session(principal, "study", "vpn", True)
        with pytest.raises(SessionAlreadyOpen):
            broker.sessions.resume_session(principal, "study", "vpn", True)
        assert open_sessions(broker) == [first]

    def test_no_gateway_no_path(self):
        b = make_broker()
        del b.enclave.gateways["gw-research-jump"]
        b.policy.grant_access("stw1", "study", "res1", "rdp")
        principal = authenticate(b, "res1")
        with pytest.raises(NoPath):
            b.sessions.open_session(principal, "study", "rdp", False)

    def test_open_emits_session_trail(self, broker):
        session, _ = open_rdp(broker)
        trail = broker.ledger.reconstruct_session(session.id)
        assert [e["action"] for e in trail][:3] == ["authn", "map", "attach"]

    def test_federated_collaborator_can_open_session(self, broker):
        """External collaborator: sponsored affiliate, federated assertion
        with MFA satisfied at the home institution, then a brokered session."""
        from enclavebroker.identity import FederatedAssertion
        broker.directory.register_user("visitor-aff", "affiliate", "stw1")
        broker.directory.add_trusted_issuer("idp.partner")
        broker.directory.map_subject("idp.partner", "visitor", "visitor-aff")
        broker.policy.grant_access("stw1", "study", "visitor-aff", "rdp")
        assertion = FederatedAssertion(issuer="idp.partner", subject="visitor",
                                       issued_at=0, expires_at=3600,
                                       mfa_satisfied=True)
        broker.clock.advance(10)
        principal = broker.directory.assert_federated(assertion)
        session, _ = broker.sessions.open_session(principal, "study", "rdp", False)
        authn = broker.ledger.reconstruct_session(session.id)[0]
        assert authn["detail"]["method"] == "federated"

    def test_revoke_and_vm_destroy_close_through_the_open_index(self, broker):
        first, _ = open_rdp(broker, "res1")
        other, _ = open_rdp(broker, "res2")
        broker.policy.revoke_access("stw1", "study", "res1", "rdp")
        forced = [e.object for e in broker.ledger.events if e.action == "revoke-forced-close"]
        assert forced == [first.id]
        assert open_sessions(broker) == [other]
        broker.enclave.destroy_vm(other.vm_id)
        assert other.state is SessionState.CLOSED
        last = broker.ledger.events[-1]
        assert (last.action, last.object, last.detail["cause"]) == \
            ("close", other.id, "vm-destroyed")
        assert open_sessions(broker) == []
        assert broker.enclave.vm(first.vm_id).state is VmState.RETAINED

    def test_revoking_an_unused_mode_leaves_the_session_open(self, broker):
        session, _ = open_rdp(broker)
        broker.policy.grant_access("stw1", "study", "res1", "vpn")
        broker.policy.revoke_access("stw1", "study", "res1", "vpn")
        assert session.state is SessionState.OPEN
        assert open_sessions(broker) == [session]
        assert not any(e.action == "revoke-forced-close" for e in broker.ledger.events)

    def test_forced_closes_follow_id_order_past_six_digits(self, broker):
        broker.sessions._session_seq = 999_999
        session, _ = open_rdp(broker)
        assert session.id == "s-1000000"
        broker.sessions.close_session(session.id)
        with pytest.raises(SessionAlreadyClosed, match="^s-1000000$"):
            broker.sessions.close_session(session.id)


class TestMintCredential:
    def test_second_mint_while_active(self, broker):
        session, _ = open_rdp(broker)
        with pytest.raises(CredentialAlreadyActive):
            broker.sessions.mint_credential(session.arbitrary_user, session.id)

    def test_remint_after_destroy_gives_new_secret(self, broker):
        session, _ = open_rdp(broker)
        first = broker.sessions.credential(session.credential_id).secret
        broker.sessions.close_session(session.id)
        principal = authenticate(broker, "res1")
        resumed, _ = broker.sessions.resume_session(principal, "study", "rdp", False)
        second = broker.sessions.credential(resumed.credential_id).secret
        assert first != second

    def test_secrets_never_repeat(self, broker):
        secrets = set()
        for i in range(10_000):
            credential = broker.sessions.mint_credential(f"u-{i:08x}", f"s-{i:06d}")
            secrets.add(credential.secret)
        assert len(secrets) == 10_000


class TestGroupAlignment:
    def _share_with_acl(self, broker, group="study-rdp"):
        share = broker.enclave.create_share("study", "cifs", 1.0)
        broker.enclave.set_share_acl("stw1", share.id, {group})
        return share

    def test_shadow_membership_mirrors_principal(self, broker):
        share = self._share_with_acl(broker)
        session, _ = open_rdp(broker)
        assert can_read_share(broker, share.id, session.arbitrary_user)
        assert can_read_share(broker, share.id, "res1")

    def test_no_acl_no_shadow(self, broker):
        share = self._share_with_acl(broker, group="analysts")
        session, _ = open_rdp(broker)
        assert not can_read_share(broker, share.id, session.arbitrary_user)

    def test_alignment_matches_principal_for_random_acls(self, broker):
        """Pointwise comparison against direct evaluation on the principal."""
        import random
        rng = random.Random(3)
        groups = ["study-rdp", "study-vpn", "analysts"]
        shares = [broker.enclave.create_share("study", "cifs", 1.0) for _ in range(6)]
        for share in shares:
            broker.enclave.set_share_acl(
                "stw1", share.id, set(rng.sample(groups, k=rng.randint(0, 3))))
        broker.directory.group("analysts").members.add("res1")
        session, _ = open_rdp(broker)
        for share in shares:
            direct = any(broker.directory.is_member(g, "res1")
                         for g in share.acl_groups)
            mirrored = can_read_share(broker, share.id, session.arbitrary_user)
            assert mirrored == direct

    def test_shadow_removed_after_close(self, broker):
        share = self._share_with_acl(broker)
        session, _ = open_rdp(broker)
        broker.sessions.close_session(session.id)
        assert not can_read_share(broker, share.id, session.arbitrary_user)

    def test_shadow_hygiene_outside_sessions(self, broker):
        session, _ = open_rdp(broker)
        broker.sessions.close_session(session.id)
        for name in ("study-rdp", "study-vpn", "analysts"):
            assert session.arbitrary_user not in shadow_members(broker, name)


class TestAuthenticateToVm:
    def test_accept_during_open_session(self, broker):
        session, _ = open_rdp(broker)
        secret = broker.sessions.credential(session.credential_id).secret
        assert broker.sessions.authenticate_to_vm(secret, session.vm_id) is AuthOutcome.ACCEPTED

    def test_replay_after_close_rejected(self, broker):
        session, _ = open_rdp(broker)
        secret = broker.sessions.credential(session.credential_id).secret
        broker.sessions.close_session(session.id)
        assert broker.sessions.authenticate_to_vm(secret, session.vm_id) is AuthOutcome.REJECTED

    def test_cross_session_replay_on_retained_vm_rejected(self, broker):
        session, _ = open_rdp(broker)
        stolen = broker.sessions.credential(session.credential_id).secret
        broker.sessions.close_session(session.id)
        principal = authenticate(broker, "res1")
        resumed, _ = broker.sessions.resume_session(principal, "study", "rdp", False)
        assert resumed.vm_id == session.vm_id
        assert broker.sessions.authenticate_to_vm(stolen, resumed.vm_id) is AuthOutcome.REJECTED

    def test_wrong_vm_rejected(self, broker):
        session, _ = open_rdp(broker)
        other = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        secret = broker.sessions.credential(session.credential_id).secret
        assert broker.sessions.authenticate_to_vm(secret, other.id) is AuthOutcome.REJECTED

    def test_garbage_secret_rejected(self, broker):
        session, _ = open_rdp(broker)
        assert broker.sessions.authenticate_to_vm("0" * 32, session.vm_id) is AuthOutcome.REJECTED


def _sign_in(broker, netid: str, *modes: str) -> None:
    """Grant ``netid`` the modes on ``study`` and pass MFA, through the op
    table as a wire client would."""
    for mode in modes:
        broker.op("grant_access", {"actor": "stw1", "project": "study", "netid": netid,
                                   "mode": mode})
    broker.op("verify_mfa", {"netid": netid, "proof": f"mfa-{netid}"})


def _op_open(broker, netid: str, mode: str = "rdp", op: str = "open_session", **args):
    return broker.op(op, {"netid": netid, "project": "study", "mode": mode, **args})


def _footprint(broker):
    """Everything a refused open could leave behind."""
    return ({vm.id: vm.state for vm in broker.enclave.vms.values()},
            [(h.used_cpu, h.used_ram) for h in broker.enclave.hosts.values()],
            len(broker.ledger), dict(broker.sessions._vm_users))


class TestRefusedOpenChangesNothing:
    @pytest.mark.parametrize("src_zone", ["protected-vrf", "nowhere"])
    def test_open_from_a_bad_source_zone(self, broker, src_zone):
        _sign_in(broker, "res1", "rdp")
        before = _footprint(broker)
        with pytest.raises(UnknownEndpoint) as refused:
            _op_open(broker, "res1", src_zone=src_zone)
        assert refused.value.code == "unknown-endpoint"
        assert _footprint(broker) == before

    def test_resume_from_a_bad_source_zone_keeps_the_retained_vm(self, broker):
        _sign_in(broker, "res1", "rdp")
        opened = _op_open(broker, "res1")
        broker.op("close_session", {"session": opened["session_id"]})
        with pytest.raises(UnknownEndpoint):
            _op_open(broker, "res1", op="resume_session", src_zone="nowhere")
        assert broker.sessions.binding("res1", "study").vm_id == opened["vm_id"]
        assert broker.enclave.vm(opened["vm_id"]).state is VmState.RETAINED
        broker.op("advance", {"seconds": 31 * DAY})
        assert broker.op("expire_retained") == {"reclaimed": [opened["vm_id"]]}
        assert all((h.used_cpu, h.used_ram) == (0, 0)
                   for h in broker.enclave.hosts.values())

    def test_retained_vm_enters_by_the_gateway_rule_only(self, broker):
        """A retained VM whose new mode has no gateway is refused as a fresh
        one is, even where an exception rule would admit the service."""
        _sign_in(broker, "res1", "vpn", "rdp")
        _sign_in(broker, "res2", "rdp")
        opened = _op_open(broker, "res1", "vpn", endpoint_managed=True)
        broker.op("close_session", {"session": opened["session_id"]})
        del broker.enclave.gateways["gw-research-jump"]
        broker.op("register_exception", {"actor": "admin1", "service": "rdp",
                                         "src": "internet", "dst": "research-subnet",
                                         "documented_by": "vendor support"})
        with pytest.raises(NoPath) as fresh:
            _op_open(broker, "res2")
        before = _footprint(broker)
        with pytest.raises(NoPath) as retained:
            _op_open(broker, "res1")
        assert str(retained.value) == str(fresh.value) == "mode-mismatch"
        assert _footprint(broker) == before
        assert broker.sessions.binding("res1", "study").vm_id == opened["vm_id"]
        assert broker.enclave.vm(opened["vm_id"]).state is VmState.RETAINED


class TestCloseAndRetention:
    def test_close_retains_vm_and_destroys_credential(self, broker):
        session, _ = open_rdp(broker)
        secret = broker.sessions.credential(session.credential_id).secret
        broker.sessions.close_session(session.id)
        assert broker.enclave.vm(session.vm_id).state is VmState.RETAINED
        assert broker.sessions.authenticate_to_vm(secret, session.vm_id) is AuthOutcome.REJECTED
        destroyed = [e.object for e in broker.ledger.events if e.action == "credential-destroy"]
        assert destroyed == [session.credential_id]
        binding = broker.sessions.binding("res1", "study")
        assert binding.retained_until == broker.clock.now + 30 * DAY

    def test_close_twice(self, broker):
        session, _ = open_rdp(broker)
        broker.sessions.close_session(session.id)
        with pytest.raises(SessionAlreadyClosed):
            broker.sessions.close_session(session.id)

    def test_per_project_retention_override(self):
        b = make_broker()
        b.policy.get_project("study").retention_days = 7
        session, _ = open_rdp(b)
        b.sessions.close_session(session.id)
        assert b.sessions.binding("res1", "study").retained_until == b.clock.now + 7 * DAY

    def test_resume_preserves_vm_and_disk(self, broker):
        session, _ = open_rdp(broker)
        broker.enclave.write_disk(session.vm_id, "draft-results")
        old_secret = broker.sessions.credential(session.credential_id).secret
        broker.sessions.close_session(session.id)
        broker.clock.advance(5 * DAY)
        principal = authenticate(broker, "res1")
        resumed, _ = broker.sessions.resume_session(principal, "study", "rdp", False)
        assert resumed.vm_id == session.vm_id
        assert resumed.arbitrary_user == session.arbitrary_user
        assert broker.enclave.read_disk(resumed.vm_id) == "draft-results"
        assert broker.sessions.credential(resumed.credential_id).secret != old_secret

    def test_resume_after_expiry(self, broker):
        session, _ = open_rdp(broker)
        broker.sessions.close_session(session.id)
        broker.clock.advance(31 * DAY)
        principal = authenticate(broker, "res1")
        with pytest.raises(RetentionExpired):
            broker.sessions.resume_session(principal, "study", "rdp", False)

    def test_resume_without_prior_session(self, broker):
        broker.policy.grant_access("stw1", "study", "res1", "rdp")
        principal = authenticate(broker, "res1")
        with pytest.raises(RetentionExpired):
            broker.sessions.resume_session(principal, "study", "rdp", False)

    def test_bindings_are_per_principal(self, broker):
        first, _ = open_rdp(broker, "res1")
        broker.sessions.close_session(first.id)
        second, _ = open_rdp(broker, "res2")
        assert second.vm_id != first.vm_id

    def test_resume_after_vm_destroyed(self, broker):
        session, _ = open_rdp(broker)
        broker.sessions.close_session(session.id)
        broker.enclave.destroy_vm(session.vm_id)
        principal = authenticate(broker, "res1")
        with pytest.raises(VmUnavailable):
            broker.sessions.resume_session(principal, "study", "rdp", False)

    def test_open_after_expiry_provisions_fresh(self, broker):
        session, _ = open_rdp(broker)
        broker.sessions.close_session(session.id)
        broker.clock.advance(31 * DAY)
        fresh, _ = open_rdp(broker)
        assert fresh.vm_id != session.vm_id
        assert broker.enclave.vm(session.vm_id).state is VmState.DESTROYED


class TestExpireRetained:
    def test_no_expired_bindings(self, broker):
        session, _ = open_rdp(broker)
        broker.sessions.close_session(session.id)
        assert broker.sessions.expire_retained() == []

    def test_expired_binding_destroys_vm(self, broker):
        session, _ = open_rdp(broker)
        broker.sessions.close_session(session.id)
        broker.clock.advance(31 * DAY)
        reclaimed = broker.sessions.expire_retained()
        assert reclaimed == [session.vm_id]
        vm = broker.enclave.vm(session.vm_id)
        assert vm.state is VmState.DESTROYED
        assert vm.disk is None

    def test_expire_is_idempotent(self, broker):
        session, _ = open_rdp(broker)
        broker.sessions.close_session(session.id)
        broker.clock.advance(31 * DAY)
        broker.sessions.expire_retained()
        assert broker.sessions.expire_retained() == []


class TestLiveStateOnly:
    def test_replay_holds_only_live_state(self, tmp_path):
        """Soak: after each step of a loadgen replay the broker holds one
        session, credential, secret, active user and ledger span per open
        session, at most one open session per principal and project, one
        binding per retained VM, one arbitrary user per VM not yet
        destroyed, and no running VM without an open session; at the end,
        none."""
        topology = tmp_path / "topology.json"
        topology.write_text(json.dumps(build_topology(host_cpu=1024, host_ram=4096)))
        directory = tmp_path / "directory.json"
        directory.write_text(json.dumps(build_directory()))
        scenario = build_scenario(seed=3, sessions_target=400)
        broker = build_broker(topology, directory, seed=scenario["seed"],
                              start_time=scenario["clock"])
        held = broker.sessions
        open_ids: set[str] = set()
        for step in scenario["steps"]:
            result = broker.op(step["op"], step["args"])
            if step["op"] == "open_session":
                open_ids.add(result["session_id"])
            elif step["op"] == "close_session":
                open_ids.remove(step["args"]["session"])
            live_vms = {vm.id for vm in broker.enclave.vms.values()
                        if vm.state is not VmState.DESTROYED}
            assert set(held._open) == open_ids
            assert set(broker.ledger._span_by_session) == open_ids
            owners = [(s.principal, s.project_id) for s in held._open.values()]
            assert len(set(owners)) == len(owners)
            bound = Counter(b.vm_id for b in held._bindings.values())
            assert all(bound[vm.id] == 1 for vm in broker.enclave.vms.values()
                       if vm.state is VmState.RETAINED)
            assert len(held._credentials) == len(held._by_secret) == len(open_ids)
            assert len(held._active_by_user) == len(open_ids)
            assert set(held._vm_users) == live_vms
            assert {vm.id for vm in broker.enclave.vms.values()
                    if vm.state is VmState.RUNNING} == {s.vm_id for s in held._open.values()}
        assert held._session_seq == 400
        assert not open_ids and not live_vms and not held._bindings


class TestSecretsFromTheOs:
    """The seeded stream is public: the export shows its draws in order.
    A session secret must not be one of them."""

    @staticmethod
    def replay_secrets(lines: list[str]) -> dict[str, str]:
        """Replay random.Random(0) over an export: a provision draws a disk
        token, a fresh map an arbitrary-user name, a credential-mint a
        secret. Returns the predicted secret per session."""
        rng = random.Random(0)
        predicted = {}
        for line in lines:
            event = json.loads(line)
            if event["action"] == "provision":
                rng.getrandbits(64)
            elif event["action"] == "map" and event["detail"]["resumed"] == "false":
                name = f"u-{rng.getrandbits(32):08x}"
                assert name == event["detail"]["arbitrary_user"]
            elif event["action"] == "credential-mint":
                predicted[event["detail"]["session"]] = f"{rng.getrandbits(128):032x}"
        return predicted

    def test_export_replay_does_not_predict_another_users_secret(self):
        broker = make_broker(seed=0)
        victim, _ = open_rdp(broker, "res1")
        open_rdp(broker, "res2")
        lines = broker.op("export_ledger", {})["lines"]
        guess = self.replay_secrets(lines)[victim.id]
        answer = broker.op("authenticate_to_vm", {"secret": guess, "vm": victim.vm_id})
        assert answer == {"outcome": "rejected"}

    def test_one_seed_and_one_history_mint_different_secrets(self):
        secrets, exports = [], []
        for _ in range(2):
            broker = make_broker(seed=0)
            session, _ = open_rdp(broker)
            secrets.append(broker.sessions.credential(session.credential_id).secret)
            exports.append(broker.ledger.export_text())
        assert secrets[0] != secrets[1]
        assert exports[0] == exports[1]


class TestNonDisclosure:
    def test_client_trace_never_contains_secrets(self, broker):
        views, secrets = [], []
        for netid in ("res1", "res2"):
            session, view = open_rdp(broker, netid)
            views.append(view.to_wire())
            secrets.append(broker.sessions.credential(session.credential_id).secret)
            broker.sessions.close_session(session.id)
            principal = authenticate(broker, netid)
            resumed, view = broker.sessions.resume_session(principal, "study", "rdp", False)
            views.append(view.to_wire())
            secrets.append(broker.sessions.credential(resumed.credential_id).secret)
        blob = json.dumps(views)
        assert len(set(secrets)) == 4
        for secret in secrets:
            assert secret not in blob

    def test_vm_trace_never_contains_principal(self, broker):
        session, _ = open_rdp(broker, "res1")
        vm = broker.enclave.vm(session.vm_id)
        # What reaches the VM: its own record and the account it hosts.
        blob = json.dumps([vm.to_wire(), session.arbitrary_user])
        assert "res1" not in blob
        assert session.arbitrary_user.startswith("u-")

    def test_vm_record_fields_reference_only_arbitrary_identity(self, broker):
        session, _ = open_rdp(broker)
        vm = broker.enclave.vm(session.vm_id)
        fields = {f for f in vars(vm)}
        assert "principal" not in fields and "netid" not in fields
        assert "res1" not in json.dumps(vm.to_wire())

    def test_ledger_never_contains_secrets(self, broker):
        session, _ = open_rdp(broker)
        secret = broker.sessions.credential(session.credential_id).secret
        broker.sessions.close_session(session.id)
        assert secret not in broker.ledger.export_text()
