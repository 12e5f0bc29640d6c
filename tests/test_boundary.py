"""The op boundary: every op through `Broker.op`, and the client errors that
missing, ill-typed and out-of-range arguments get."""

from __future__ import annotations

import hashlib

import pytest

from conftest import make_broker
from enclavebroker.broker import OPS
from enclavebroker.errors import AssertionExpired, BrokerError

# What one pass over every op returns, in order, on make_broker(seed=7).
PINNED = {
    "advance": {"now": 100},
    "register_user": {"active": True, "affiliation": "affiliate", "netid": "aff1",
                      "sponsor": "stw1"},
    "deactivate_user": {"deactivated": ["res3"]},
    "assert_federated": {"method": "federated", "mfa_passed": True, "netid": "res2"},
    "verify_mfa": {"method": "local", "mfa_passed": True, "netid": "res1"},
    "create_group": {"group": "reviewers", "kind": "role"},
    "set_membership": {"group": "reviewers", "members": ["res1"]},
    "register_project": {"project": "p1", "rdp_group": "p1-rdp", "tier": "restricted",
                         "vpn_group": "p1-vpn", "zone": "protected-vrf"},
    "grant_access": {"active": True, "actor": "stw1", "at": 100, "mode": "rdp",
                     "netid": "res1", "project": "study"},
    "revoke_access": {"active": False, "actor": "stw1", "at": 100, "mode": "vpn",
                      "netid": "res1", "project": "study"},
    "check_access": {"path": [], "reason": "explicit-grant", "verdict": "allow"},
    "authorize_mode": {"modes": ["rdp"]},
    "set_proxy_whitelist": {"origins": ["https://provider.example.org"], "project": "study"},
    "set_brokers": {"brokers": ["broker1"], "project": "study"},
    "provision_vm": {"cpu": 2, "host": "host-a", "project": "atlas", "ram": 8,
                     "state": "running", "vm": "vm-0001", "zone": "protected-vrf"},
    "resize_vm": {"cpu": 4, "host": "host-a", "project": "atlas", "ram": 16,
                  "state": "running", "vm": "vm-0001", "zone": "protected-vrf"},
    "write_disk": {"disk": "t1", "vm": "vm-0001"},
    "read_disk": {"disk": "t1", "vm": "vm-0001"},
    "create_share": {"acl_groups": [], "capacity_tb": 2.0, "dedicated_device": False,
                     "project": "study", "protocol": "cifs", "resizable": True,
                     "share": "share-0001", "zone": "research-subnet"},
    "set_share_acl": {"acl_groups": ["study-rdp"], "capacity_tb": 2.0,
                      "dedicated_device": False, "project": "study", "protocol": "cifs",
                      "resizable": True, "share": "share-0001", "zone": "research-subnet"},
    "register_exception": {"rule": "exc-0001"},
    "is_reachable": {"path": ["campus", "exception:exc-0001", "vm-0001"],
                     "reason": "exception:exc-0001", "verdict": "allow"},
    "proxy_fetch": {"path": ["proxy", "https://provider.example.org"],
                    "reason": "proxy-whitelist", "verdict": "allow"},
    "open_session": {"gateway_path": ["internet", "gw-research-jump", "research-subnet",
                                      "vm-0002"],
                     "mode": "rdp", "session_id": "s-000001", "vm_id": "vm-0002"},
    "align_groups": {"aligned": []},
    "authenticate_to_vm": {"outcome": "accepted"},
    "attempt_clipboard": {"path": [], "reason": "rdp-clipboard-disabled", "verdict": "deny"},
    "attempt_file_egress": {"path": [], "reason": "rdp-no-egress", "verdict": "deny"},
    "submit_export": {"broker": None, "payload": "results.tar", "project": "study",
                      "rationale": "", "release_token": None, "request": "req-0001",
                      "requester": "res1", "status": "pending"},
    "adjudicate_export": {"broker": "broker1", "payload": "results.tar", "project": "study",
                          "rationale": "ok", "release_token": "rel-5d9dc9f81818e811",
                          "request": "req-0001", "requester": "res1", "status": "approved"},
    "close_session": {"closed_at": 100, "session_id": "s-000001", "state": "closed"},
    "resume_session": {"gateway_path": ["internet", "gw-research-jump", "research-subnet",
                                        "vm-0002"],
                       "mode": "rdp", "session_id": "s-000002", "vm_id": "vm-0002"},
    "expire_retained": {"reclaimed": []},
    "submit_image": {"approver": None, "builder": "res1", "digest": "13c6179d8e03e1b5"
                     "1325c5b2d6168c2c6d60f68cde334278c74776e8cfada6ee",
                     "image_id": "img-0001", "project": "study", "state": "drafted",
                     "vetter": None},
    "vet_image": {"approver": None, "builder": "res1", "digest": "13c6179d8e03e1b5"
                  "1325c5b2d6168c2c6d60f68cde334278c74776e8cfada6ee",
                  "image_id": "img-0001", "project": "study", "state": "vetted",
                  "vetter": "vetter1"},
    "approve_image": {"approver": "stw1", "builder": "res1", "digest": "13c6179d8e03e1b5"
                      "1325c5b2d6168c2c6d60f68cde334278c74776e8cfada6ee",
                      "image_id": "img-0001", "project": "study", "state": "approved",
                      "vetter": "vetter1"},
    "deploy_image": {"deployed_at": 100, "digest_verified": True, "image": "img-0001",
                     "instance": "inst-0001", "retired": False, "vm": "vm-0003"},
    "update_deployment": {"deployed_at": 100, "digest_verified": True, "image": "img-0002",
                          "instance": "inst-0002", "retired": False, "vm": "vm-0003"},
    "revoke_image": {"approver": "stw1", "builder": "res1", "digest": "13c6179d8e03e1b5"
                     "1325c5b2d6168c2c6d60f68cde334278c74776e8cfada6ee",
                     "image_id": "img-0001", "project": "study", "state": "revoked",
                     "vetter": "vetter1"},
    "resolve_identity": {"arbitrary_user": "u-a6a3a450", "netid": "res1"},
    "reconstruct_session": {"session": "s-000001", "actions": [
        "authn", "map", "attach", "credential-mint", "egress-deny", "egress-deny",
        "export-submit", "credential-destroy", "close"]},
    "verify_chain": {"first_bad_seq": None, "ok": True},
    "compliance_report": {"affiliate_stewards": [], "efficiency_flags": ["vm-0003"],
                          "egress_allowed": 0, "egress_denied": 2,
                          "exception_traversals": 0, "grants": 1, "period_end": 100,
                          "period_start": 0, "project_id": "study", "revokes": 1,
                          "sessions_by_mode": {"rdp": 2, "vpn": 0}},
    "export_ledger": {"events": 54, "sha256": "14a90a7f10b75cef14c31fba6fe9b441"
                                            "11f71841baae91b5de82a755d53d9ff4"},
    "destroy_vm": {"destroyed_at": 100, "disk": "absent", "vm": "vm-0001"},
}

# The arguments each op cannot do without.
REQUIRED = {
    "advance": ["seconds"],
    "register_user": ["netid"],
    "deactivate_user": ["actor", "netid"],
    "assert_federated": ["issuer", "subject", "issued_at", "expires_at"],
    "verify_mfa": ["netid"],
    "create_group": ["name"],
    "set_membership": ["actor", "group", "netid", "action"],
    "register_project": ["actor", "id", "classification"],
    "grant_access": ["actor", "project", "netid", "mode"],
    "revoke_access": ["actor", "project", "netid", "mode"],
    "check_access": ["netid", "project", "mode"],
    "authorize_mode": ["netid", "project"],
    "set_proxy_whitelist": ["actor", "project", "origins"],
    "set_brokers": ["actor", "project", "netids"],
    "provision_vm": ["project", "zone", "cpu", "ram"],
    "resize_vm": ["vm", "cpu", "ram"],
    "destroy_vm": ["vm"],
    "read_disk": ["vm"],
    "write_disk": ["vm", "token"],
    "create_share": ["project", "protocol", "capacity_tb"],
    "set_share_acl": ["actor", "share"],
    "is_reachable": ["src", "dst", "service"],
    "register_exception": ["actor", "service", "src", "dst"],
    "proxy_fetch": ["project", "url"],
    "open_session": ["netid", "project", "mode"],
    "resume_session": ["netid", "project", "mode"],
    "close_session": ["session"],
    "align_groups": ["session"],
    "authenticate_to_vm": ["secret", "vm"],
    "expire_retained": [],
    "attempt_clipboard": ["session"],
    "attempt_file_egress": ["session"],
    "submit_export": ["session", "payload"],
    "adjudicate_export": ["broker", "request", "verdict", "rationale"],
    "submit_image": ["builder", "project", "payload"],
    "vet_image": ["vetter", "image"],
    "approve_image": ["approver", "image"],
    "deploy_image": ["operator", "image", "project", "digest"],
    "update_deployment": ["operator", "instance", "image"],
    "revoke_image": ["actor", "image"],
    "resolve_identity": ["arbitrary_user"],
    "reconstruct_session": ["session"],
    "verify_chain": [],
    "compliance_report": ["project"],
    "export_ledger": [],
}

# A well-typed value for each required argument; the rest are strings.
SAMPLE = {"seconds": 5, "issued_at": 0, "expires_at": 10, "action": "add",
          "classification": "sensitive", "mode": "rdp", "origins": ["https://a.example"],
          "netids": ["broker1"], "cpu": 2, "ram": 4, "capacity_tb": 1.0,
          "verdict": "approved", "netid": "res1"}


def drive_every_op(broker) -> dict:
    """Call each op once through Broker.op; returns op -> result."""
    results = {}

    def op(name, args):
        results[name] = broker.op(name, args)
        return results[name]

    broker.directory.add_trusted_issuer("idp.example.org")
    broker.directory.map_subject("idp.example.org", "sub-7", "res2")
    op("advance", {"seconds": 100})
    op("register_user", {"netid": "aff1", "affiliation": "affiliate", "sponsor": "stw1",
                         "mfa_secret": "mfa-aff1"})
    op("deactivate_user", {"actor": "admin1", "netid": "res3"})
    op("assert_federated", {"issuer": "idp.example.org", "subject": "sub-7",
                            "issued_at": 50, "expires_at": 500, "mfa_satisfied": True})
    op("verify_mfa", {"netid": "res1", "proof": "mfa-res1"})
    op("create_group", {"name": "reviewers", "actor": "admin1"})
    op("set_membership", {"actor": "admin1", "group": "reviewers", "netid": "res1",
                          "action": "add"})
    op("register_project", {"actor": "admin1", "id": "p1", "classification": "restricted",
                            "stewards": ["stw1"]})
    op("grant_access", {"actor": "stw1", "project": "study", "netid": "res1", "mode": "rdp"})
    op("revoke_access", {"actor": "stw1", "project": "study", "netid": "res1", "mode": "vpn"})
    op("check_access", {"netid": "res1", "project": "study", "mode": "rdp"})
    op("authorize_mode", {"netid": "res1", "project": "study"})
    op("set_proxy_whitelist", {"actor": "admin1", "project": "study",
                               "origins": ["https://Provider.example.org/x"]})
    op("set_brokers", {"actor": "admin1", "project": "study", "netids": ["broker1"]})
    vm = op("provision_vm", {"project": "atlas", "zone": "protected-vrf", "cpu": 2,
                             "ram": 8})["vm"]
    op("resize_vm", {"vm": vm, "cpu": 4, "ram": 16})
    op("write_disk", {"vm": vm, "token": "t1"})
    op("read_disk", {"vm": vm})
    share = op("create_share", {"project": "study", "protocol": "cifs",
                                "capacity_tb": 2})["share"]
    op("set_share_acl", {"actor": "stw1", "share": share, "groups": ["study-rdp"]})
    op("register_exception", {"actor": "admin1", "service": "https", "src": "campus",
                              "dst": vm, "documented_by": "ticket 1"})
    op("is_reachable", {"src": "campus", "dst": vm, "service": "https"})
    op("proxy_fetch", {"project": "study", "url": "https://provider.example.org/data"})
    sid = op("open_session", {"netid": "res1", "project": "study", "mode": "rdp"})["session_id"]
    session = broker.sessions.session(sid)
    op("align_groups", {"session": sid})
    secret = broker.sessions.credential(session.credential_id).secret
    op("authenticate_to_vm", {"secret": secret, "vm": session.vm_id})
    op("attempt_clipboard", {"session": sid})
    op("attempt_file_egress", {"session": sid})
    request = op("submit_export", {"session": sid, "payload": "results.tar"})["request"]
    op("adjudicate_export", {"broker": "broker1", "request": request,
                             "verdict": "approved", "rationale": "ok"})
    op("close_session", {"session": sid})
    op("resume_session", {"netid": "res1", "project": "study", "mode": "rdp"})
    op("expire_retained", {})
    image = op("submit_image", {"builder": "res1", "project": "study",
                                "payload": "layers:v1"})
    op("vet_image", {"vetter": "vetter1", "image": image["image_id"], "report": "clean"})
    op("approve_image", {"approver": "stw1", "image": image["image_id"]})
    instance = op("deploy_image", {"operator": "admin1", "image": image["image_id"],
                                   "project": "study", "digest": image["digest"]})
    replacement = broker.pipeline.submit_image("res1", "study", "layers:v2", "campus")
    broker.pipeline.vet_image("vetter1", replacement.id, "clean")
    broker.pipeline.approve_image("stw1", replacement.id)
    op("update_deployment", {"operator": "admin1", "instance": instance["instance"],
                             "image": replacement.id})
    op("revoke_image", {"actor": "admin1", "image": image["image_id"]})
    op("resolve_identity", {"arbitrary_user": session.arbitrary_user})
    op("reconstruct_session", {"session": sid})
    op("verify_chain", {})
    op("compliance_report", {"project": "study"})
    op("export_ledger", {})
    op("destroy_vm", {"vm": vm})
    return results


def test_every_op_once_through_the_boundary():
    broker = make_broker(seed=7)
    results = drive_every_op(broker)
    assert sorted(results) == sorted(OPS)
    trace = results["reconstruct_session"]
    results["reconstruct_session"] = {"session": trace["session"],
                                      "actions": [e["action"] for e in trace["events"]]}
    export = results["export_ledger"]
    assert export["lines"] == broker.ledger.export_lines()[:export["events"]]
    results["export_ledger"] = {"events": export["events"], "sha256": hashlib.sha256(
        "\n".join(export["lines"]).encode("utf-8")).hexdigest()}
    assert list(results) == list(PINNED)
    for name, pinned in PINNED.items():
        assert results[name] == pinned, name
    times = [e.at for e in broker.ledger.events]
    assert times == sorted(times)
    assert times[-1] <= broker.clock.now


def test_required_arguments_match_the_declared_ones():
    assert sorted(REQUIRED) == sorted(OPS)


@pytest.mark.parametrize("op,dropped", [
    (op, name) for op, names in sorted(REQUIRED.items()) for name in names])
def test_missing_argument_is_bad_request(op, dropped):
    broker = make_broker()
    events = len(broker.ledger)
    args = {name: SAMPLE.get(name, "x") for name in REQUIRED[op] if name != dropped}
    with pytest.raises(BrokerError) as err:
        broker.op(op, args)
    assert err.value.code == "bad-request"
    assert op in str(err.value) and repr(dropped) in str(err.value)
    assert len(broker.ledger) == events


@pytest.mark.parametrize("op", sorted(REQUIRED))
def test_required_arguments_alone_pass_the_check(op):
    """No op asks for more than REQUIRED names: whatever the call then
    does, it is not refused as a bad request."""
    broker = make_broker()
    broker.op("verify_mfa", {"netid": "res1", "proof": "mfa-res1"})
    try:
        broker.op(op, {name: SAMPLE.get(name, "x") for name in REQUIRED[op]})
    except BrokerError as exc:
        assert exc.code != "bad-request", exc


@pytest.mark.parametrize("op,args", [
    ("advance", {"seconds": -5}),
    ("advance", {"seconds": "x"}),
    ("advance", {"seconds": True}),
    ("advance", {"seconds": 1.5}),
    ("register_user", {"netid": "m1", "affiliation": "martian"}),
    ("register_user", {"netid": 5}),
    ("grant_access", {"actor": "stw1", "project": "study", "netid": "res1", "mode": "ssh"}),
    ("register_project", {"actor": "admin1", "id": "p9", "classification": "secret"}),
    ("register_project", {"actor": "admin1", "id": "p9", "classification": "public",
                          "stewards": "stw1"}),
    ("register_project", {"actor": "admin1", "id": "p9", "classification": "public",
                          "stewards": ["stw1", 2]}),
    ("provision_vm", {"project": "study", "zone": "research-subnet", "cpu": "4", "ram": 16}),
    ("provision_vm", {"project": "study", "zone": "research-subnet", "cpu": 4, "ram": 16,
                      "dedicated": "yes"}),
    ("create_share", {"project": "study", "protocol": "cifs", "capacity_tb": "big"}),
    ("set_membership", {"actor": "admin1", "group": "analysts", "netid": "res1",
                        "action": "toggle"}),
    ("attempt_clipboard", {"session": "s-000001", "direction": "sideways"}),
    ("adjudicate_export", {"broker": "broker1", "request": "req-0001", "verdict": "maybe",
                           "rationale": "r"}),
    ("register_exception", {"actor": "admin1", "service": "https", "src": "campus",
                            "dst": "vm-0001", "direction": "sideways"}),
    ("assert_federated", {"issuer": "idp", "subject": "s", "issued_at": 10,
                          "expires_at": 10}),
    ("assert_federated", {"issuer": "idp", "subject": "s", "issued_at": 0,
                          "expires_at": 10, "attributes": ["a"]}),
    ("check_access", {"netid": ["res1"], "project": "study", "mode": "rdp"}),
    ("compliance_report", {"project": "study", "end": "now"}),
])
def test_ill_typed_or_out_of_range_argument_is_bad_request(op, args):
    broker = make_broker()
    events = len(broker.ledger)
    with pytest.raises(BrokerError) as err:
        broker.op(op, args)
    assert err.value.code == "bad-request"
    assert len(broker.ledger) == events


@pytest.mark.parametrize("args", [[], "netid=res1", 5, ["netid", "res1"]])
def test_args_that_are_not_an_object_are_bad_request(args):
    with pytest.raises(BrokerError) as err:
        make_broker().op("verify_mfa", args)
    assert err.value.code == "bad-request"


def test_null_argument_counts_as_absent():
    broker = make_broker()
    assert broker.op("register_user", {"netid": "m2", "affiliation": None,
                                       "sponsor": None})["affiliation"] == "member"
    with pytest.raises(BrokerError) as err:
        broker.op("verify_mfa", {"netid": None})
    assert err.value.code == "bad-request"


def test_unauthenticated_principal_is_checked_after_the_arguments():
    broker = make_broker()
    with pytest.raises(BrokerError) as err:
        broker.op("check_access", {"netid": "res1", "project": "study"})
    assert err.value.code == "bad-request"
    with pytest.raises(BrokerError) as err:
        broker.op("check_access", {"netid": "res1", "project": "study", "mode": "rdp"})
    assert err.value.code == "mfa-required"


class TestFederatedTime:
    """A wire client cannot choose the time an assertion is judged at."""

    def _broker(self):
        broker = make_broker()
        broker.directory.add_trusted_issuer("idp.example.org")
        broker.directory.map_subject("idp.example.org", "sub-1", "res2")
        return broker

    def test_client_now_inside_the_window_does_not_revive_an_expired_assertion(self):
        broker = self._broker()
        broker.op("advance", {"seconds": 1000})
        with pytest.raises(AssertionExpired):
            broker.op("assert_federated", {
                "issuer": "idp.example.org", "subject": "sub-1", "issued_at": 0,
                "expires_at": 500, "mfa_satisfied": True, "now": 100})
        assert broker.ledger.events[-1].action != "authn"

    def test_assertion_is_judged_and_logged_at_broker_time(self):
        broker = self._broker()
        broker.op("advance", {"seconds": 100})
        broker.op("assert_federated", {
            "issuer": "idp.example.org", "subject": "sub-1", "issued_at": 50,
            "expires_at": 500, "mfa_satisfied": True, "now": 400})
        event = broker.ledger.events[-1]
        assert (event.action, event.at) == ("authn", 100)


def test_wire_clients_cannot_mint_credentials():
    """Only opening a session mints a credential, so a closed session's
    arbitrary user stays resumable."""
    broker = make_broker()
    visit = {"netid": "res1", "project": "study", "mode": "rdp"}
    broker.op("verify_mfa", {"netid": "res1", "proof": "mfa-res1"})
    broker.op("grant_access", {"actor": "stw1", "project": "study", "netid": "res1",
                               "mode": "rdp"})
    sid = broker.op("open_session", visit)["session_id"]
    session = broker.sessions.session(sid)
    broker.op("close_session", {"session": sid})
    with pytest.raises(BrokerError) as err:
        broker.op("mint_credential", {"arbitrary_user": session.arbitrary_user,
                                      "session": sid})
    assert err.value.code == "unknown-op"
    assert broker.op("resume_session", visit)["vm_id"] == session.vm_id


def test_closed_session_ids_keep_their_codes():
    """Closed sessions are not kept, yet an id the broker issued still tells
    `session-closed` from `unknown-session`, on the gateway path as well."""
    broker = make_broker()
    broker.op("verify_mfa", {"netid": "res1", "proof": "mfa-res1"})
    broker.op("grant_access", {"actor": "stw1", "project": "study", "netid": "res1",
                               "mode": "rdp"})
    view = broker.op("open_session", {"netid": "res1", "project": "study", "mode": "rdp"})
    sid = view["session_id"]
    gateway = {"src": "internet", "dst": view["vm_id"], "service": "rdp", "session": sid}
    assert broker.op("is_reachable", gateway)["verdict"] == "allow"
    broker.op("close_session", {"session": sid})

    def code(op: str, args: dict) -> str:
        with pytest.raises(BrokerError) as err:
            broker.op(op, args)
        return err.value.code

    assert code("close_session", {"session": sid}) == "session-already-closed"
    for op, args in (("is_reachable", gateway), ("align_groups", {"session": sid}),
                     ("attempt_clipboard", {"session": sid}),
                     ("attempt_file_egress", {"session": sid}),
                     ("submit_export", {"session": sid, "payload": "results.tar"})):
        assert code(op, args) == "session-closed", op
    for other in ("s-000002", "s-000000", "s-1", "s-0000001", "s-+00001", "t-000001",
                  "s-", "s-" + "9" * 5000):
        assert code("close_session", {"session": other}) == "unknown-session", other
        assert code("is_reachable", {**gateway, "session": other}) == "unknown-session"


def test_origin_without_scheme_is_a_client_error():
    with pytest.raises(BrokerError) as err:
        make_broker().op("set_proxy_whitelist", {"actor": "admin1", "project": "study",
                                                 "origins": ["provider.example.org"]})
    assert err.value.code == "invalid-spec"


# The ops only a platform administrator may call, each with arguments an
# administrator's call succeeds with; ``who`` is the acting netid and ``c``
# the objects that ``admin_ops_broker`` set up.
ADMIN_ONLY = {
    "deactivate_user": lambda who, c: {"actor": who, "netid": "res3"},
    "create_group": lambda who, c: {"name": "reviewers", "actor": who},
    "register_project": lambda who, c: {"actor": who, "id": "p1",
                                        "classification": "restricted", "stewards": ["stw1"]},
    "set_proxy_whitelist": lambda who, c: {"actor": who, "project": "study",
                                           "origins": ["https://provider.example.org"]},
    "set_brokers": lambda who, c: {"actor": who, "project": "study", "netids": ["broker1"]},
    "register_exception": lambda who, c: {"actor": who, "service": "https", "src": "campus",
                                          "dst": c["vm"], "documented_by": "inbound"},
    "deploy_image": lambda who, c: {"operator": who, "image": c["spare"], "project": "study",
                                    "digest": c["digest"]},
    "update_deployment": lambda who, c: {"operator": who, "instance": c["instance"],
                                         "image": c["spare"]},
    "revoke_image": lambda who, c: {"actor": who, "image": c["deployed"]},
}


def admin_ops_broker():
    """make_broker with one deployed image and one approved spare."""
    broker = make_broker()
    images = []
    for payload in ("layers:v1", "layers:v2"):
        image = broker.pipeline.submit_image("res1", "study", payload, source="campus")
        broker.pipeline.vet_image("vetter1", image.id, "clean")
        broker.pipeline.approve_image("stw1", image.id)
        images.append(image)
    deployed, spare = images
    instance = broker.pipeline.deploy_image("admin1", deployed.id, "study", deployed.digest)
    return broker, {"vm": instance.vm_id, "instance": instance.id, "deployed": deployed.id,
                    "spare": spare.id, "digest": spare.digest}


@pytest.mark.parametrize("op", sorted(ADMIN_ONLY))
def test_admin_only_op_refuses_a_non_admin_and_appends_nothing(op):
    broker, made = admin_ops_broker()
    n = len(broker.ledger)
    with pytest.raises(BrokerError) as err:
        broker.op(op, ADMIN_ONLY[op]("stw1", made))
    assert (err.value.code, str(err.value)) == (
        "unauthorized", "stw1 is not a platform administrator")
    assert len(broker.ledger) == n
    broker.op(op, ADMIN_ONLY[op]("admin1", made))
