from __future__ import annotations

import hashlib
import json
import operator
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from enclavebroker.configio import build_broker
from enclavebroker.errors import BrokerError, ContentDestroyed, UntrustedIssuer
from enclavebroker.identity import FederatedAssertion
from enclavebroker.ledger import event_hash
from enclavebroker.loadgen import build_directory, build_scenario, build_topology
from enclavebroker.model import AccessMode
from enclavebroker.sessions import DAY, AuthOutcome

from conftest import authenticate, make_broker, open_sessions, shadow_members
from oracles import bfs_reachable, recount_report
from topogen import engine_answer, random_topology


@given(action=st.sampled_from(["add", "remove"]),
       netid=st.sampled_from(["res1", "res2", "res3"]))
@settings(max_examples=40, deadline=None)
def test_set_membership_idempotent(action, netid):
    broker = make_broker()
    from enclavebroker.identity import GroupKind
    broker.directory.create_group("g", GroupKind.ROLE, "study")
    broker.policy.set_membership("stw1", "g", netid, action)
    once = set(broker.directory.group("g").members)
    broker.policy.set_membership("stw1", "g", netid, action)
    assert set(broker.directory.group("g").members) == once


@given(issuer=st.text(min_size=1, max_size=20))
@settings(max_examples=80, deadline=None)
def test_federated_never_accepts_untrusted_issuer(issuer):
    broker = make_broker()
    broker.directory.add_trusted_issuer("idp.good")
    broker.directory.map_subject("idp.good", "alice", "res1")
    assertion = FederatedAssertion(issuer=issuer, subject="alice", issued_at=0,
                                   expires_at=100, mfa_satisfied=True)
    broker.clock.advance(50)
    if issuer == "idp.good":
        principal = broker.directory.assert_federated(assertion)
        assert principal.netid == "res1"
    else:
        with pytest.raises(UntrustedIssuer):
            broker.directory.assert_federated(assertion)


# Any JSON scalar, so the hash input is checked against json.dumps on every
# type a field can take.
_scalars = st.one_of(st.text(), st.integers(), st.booleans(), st.floats(), st.none())


@given(fields=st.tuples(_scalars, _scalars, _scalars, _scalars, _scalars,
                        st.dictionaries(st.text(), _scalars), _scalars))
@settings(max_examples=1000, deadline=None)
def test_canonical_encoding_equals_json_dumps(fields):
    seq, at, actor, action, object_id, detail, prev_hash = fields
    body = json.dumps([seq, at, actor, action, object_id, sorted(detail.items()), prev_hash],
                      separators=(",", ":"))
    assert (event_hash(seq, at, actor, action, object_id, detail, prev_hash)
            == hashlib.sha256(body.encode("utf-8")).hexdigest())


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_check_access_monotone_in_grants(seed):
    """Adding a grant never flips an existing allow to deny."""
    rng = random.Random(seed)
    broker = make_broker()
    users = ["res1", "res2", "res3"]
    for _ in range(rng.randint(0, 6)):
        broker.policy.grant_access("stw1", "study", rng.choice(users),
                                   rng.choice(["vpn", "rdp"]))
    before = {
        (u, m): broker.policy.check_access(authenticate(broker, u), "study", m).allowed
        for u in users for m in ("vpn", "rdp")
    }
    broker.policy.grant_access("stw1", "study", rng.choice(users),
                               rng.choice(["vpn", "rdp"]))
    for (u, m), was_allowed in before.items():
        if was_allowed:
            assert broker.policy.check_access(authenticate(broker, u),
                                              "study", m).allowed


@given(bits=st.tuples(st.booleans(), st.booleans(), st.booleans()))
@settings(max_examples=32, deadline=None)
def test_authorize_mode_equals_definition(bits):
    vpn, rdp, role = bits
    broker = make_broker()
    if vpn:
        broker.policy.grant_access("stw2", "atlas", "res1", "vpn")
    if rdp:
        broker.policy.grant_access("stw2", "atlas", "res1", "rdp")
    if role:
        broker.directory.group("analysts").members.add("res1")
    principal = authenticate(broker, "res1")
    modes = broker.policy.authorize_mode(principal, "atlas")
    derived = {m for m in AccessMode
               if broker.policy.check_access(principal, "atlas", m).allowed}
    assert modes == derived


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_reachability_engine_matches_bfs_oracle(seed):
    rng = random.Random(seed)
    enclave, topo, queries = random_topology(rng)
    for q in queries:
        engine = engine_answer(enclave, q)
        oracle = bfs_reachable(topo, q)
        assert engine.allowed == oracle.allowed, (q, engine.reason, oracle.path)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_destruction_finality_on_random_traces(seed):
    """Model-check small traces: reads fail after destroy, always."""
    rng = random.Random(seed)
    broker = make_broker()
    vms: dict[str, bool] = {}  # vm id -> destroyed
    for _ in range(30):
        op = rng.choice(["provision", "write", "destroy", "read"])
        if op == "provision" and len(vms) < 6:
            vm = broker.enclave.provision_vm("study", "research-subnet", 2, 4)
            vms[vm.id] = False
        elif vms:
            vm_id = rng.choice(sorted(vms))
            if op == "write":
                if vms[vm_id]:
                    with pytest.raises(ContentDestroyed):
                        broker.enclave.write_disk(vm_id, "x")
                else:
                    broker.enclave.write_disk(vm_id, "x")
            elif op == "destroy" and not vms[vm_id]:
                broker.enclave.destroy_vm(vm_id)
                vms[vm_id] = True
            elif op == "read":
                if vms[vm_id]:
                    with pytest.raises(ContentDestroyed):
                        broker.enclave.read_disk(vm_id)
                else:
                    assert broker.enclave.read_disk(vm_id)


class SessionLifecycle(RuleBasedStateMachine):
    """Random walks over open/close/resume/authenticate with a reference
    model; the credential-window rule must hold at every step."""

    def __init__(self):
        super().__init__()
        self.broker = make_broker(seed=99)
        for netid in ("res1", "res2"):
            self.broker.policy.grant_access("stw1", "study", netid, "rdp")
        self.open: dict[str, tuple[str, str, str]] = {}  # user -> (session, secret, vm)
        self.minted: list[tuple[str, str, str]] = []     # (secret, vm, session)
        self.closed_sessions: set[str] = set()

    users = st.sampled_from(["res1", "res2"])

    @rule(user=users)
    def open_session(self, user):
        if user in self.open:
            with pytest.raises(BrokerError):
                self.broker.sessions.open_session(
                    authenticate(self.broker, user), "study", "rdp", False)
            return
        session, _ = self.broker.sessions.open_session(
            authenticate(self.broker, user), "study", "rdp", False)
        secret = self.broker.sessions.credential(session.credential_id).secret
        self.open[user] = (session.id, secret, session.vm_id)
        self.minted.append((secret, session.vm_id, session.id))

    @rule(user=users)
    def close_session(self, user):
        if user not in self.open:
            return
        session_id, _, _ = self.open.pop(user)
        self.broker.sessions.close_session(session_id)
        self.closed_sessions.add(session_id)

    @rule(user=users)
    def resume_session(self, user):
        if user in self.open:
            return
        binding = self.broker.sessions.binding(user, "study")
        if binding is None or binding.retained_until < self.broker.clock.now:
            with pytest.raises(BrokerError):
                self.broker.sessions.resume_session(
                    authenticate(self.broker, user), "study", "rdp", False)
            return
        session, _ = self.broker.sessions.resume_session(
            authenticate(self.broker, user), "study", "rdp", False)
        secret = self.broker.sessions.credential(session.credential_id).secret
        self.open[user] = (session.id, secret, session.vm_id)
        self.minted.append((secret, session.vm_id, session.id))

    @rule(days=st.integers(1, 20))
    def advance(self, days):
        self.broker.clock.advance(days * DAY)

    @rule()
    def expire(self):
        self.broker.sessions.expire_retained()

    @invariant()
    def credential_window_holds(self):
        live = {(secret, vm) for (_, (sid, secret, vm)) in self.open.items()}
        for secret, vm, session_id in self.minted:
            outcome = self.broker.sessions.authenticate_to_vm(secret, vm)
            expected = (secret, vm) in live and session_id not in self.closed_sessions
            assert (outcome is AuthOutcome.ACCEPTED) == expected

    @invariant()
    def shadow_hygiene(self):
        # Outside open sessions, no shadow group retains the arbitrary user.
        open_aliases = {
            self.broker.sessions.session(sid).arbitrary_user
            for (sid, _, _) in self.open.values()
        }
        for group in ("study-rdp", "study-vpn"):
            for member in shadow_members(self.broker, group):
                assert member in open_aliases

    @invariant()
    def open_index_matches_history(self):
        expected = sorted(sid for (sid, _, _) in self.open.values())
        assert [s.id for s in open_sessions(self.broker)] == expected

    @invariant()
    def only_live_secrets_are_kept(self):
        sessions = self.broker.sessions
        assert set(sessions._by_secret) == {secret for (_, secret, _) in self.open.values()}
        assert len(sessions._credentials) == len(self.open)

    @invariant()
    def ledger_time_never_decreases(self):
        times = [e.at for e in self.broker.ledger.events]
        assert times == sorted(times)
        assert times[-1] <= self.broker.clock.now


TestSessionLifecycle = SessionLifecycle.TestCase
TestSessionLifecycle.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def test_arbitrary_names_never_reused():
    broker = make_broker(seed=3)
    broker.policy.grant_access("stw1", "study", "res1", "rdp")
    broker.policy.grant_access("stw2", "atlas", "res1", "rdp")
    seen = set()
    for project in ("study", "atlas"):
        session, _ = broker.sessions.open_session(
            authenticate(broker, "res1"), project, "rdp", False)
        assert session.arbitrary_user not in seen
        seen.add(session.arbitrary_user)
        broker.sessions.close_session(session.id)
        broker.clock.advance(40 * DAY)
        broker.sessions.expire_retained()
    # fresh VMs after expiry mint fresh names
    session, _ = broker.sessions.open_session(
        authenticate(broker, "res1"), "study", "rdp", False)
    assert session.arbitrary_user not in seen


def test_state_persistence_across_resume_traces():
    broker = make_broker(seed=4)
    broker.policy.grant_access("stw1", "study", "res1", "rdp")
    rng = random.Random(1)
    token = None
    for i in range(10):
        principal = authenticate(broker, "res1")
        if broker.sessions.binding("res1", "study"):
            session, _ = broker.sessions.resume_session(principal, "study", "rdp", False)
            assert broker.enclave.read_disk(session.vm_id) == token
        else:
            session, _ = broker.sessions.open_session(principal, "study", "rdp", False)
        token = f"checkpoint-{i}"
        broker.enclave.write_disk(session.vm_id, token)
        broker.sessions.close_session(session.id)
        broker.clock.advance(rng.randint(1, 5) * DAY)


@pytest.fixture(scope="module")
def replayed_history(tmp_path_factory):
    """A 400-session loadgen replay (hosts sized as in the live-state soak)
    with a project stewarded by an affiliate created halfway through.
    Returns the broker, its export lines, the parsed events, the project
    ids and the distinct event times."""
    scenario = build_scenario(seed=5, sessions_target=400)
    steps = scenario["steps"]
    half = len(steps) // 2
    steps[half:half] = [
        {"op": "register_user", "args": {"netid": "aff-1", "affiliation": "affiliate",
                                         "sponsor": "stw000"}},
        {"op": "register_project", "args": {"actor": "admin1", "id": "proj-aff",
                                            "classification": "sensitive",
                                            "stewards": ["aff-1", "stw001"]}},
    ]
    tmp = tmp_path_factory.mktemp("history")
    topology = tmp / "topology.json"
    topology.write_text(json.dumps(build_topology(host_cpu=1024, host_ram=4096)))
    directory = tmp / "directory.json"
    directory.write_text(json.dumps(build_directory()))
    broker = build_broker(topology, directory, seed=scenario["seed"],
                          start_time=scenario["clock"])
    for step in steps:
        broker.op(step["op"], step["args"])
    lines = broker.ledger.export_lines()
    events = [json.loads(line) for line in lines]
    projects = sorted(p.id for p in broker.policy.projects())
    return broker, lines, events, projects, sorted({e["at"] for e in events})


def _affiliate_stewards(events: list[dict], project: str) -> list[str]:
    affiliates = {e["detail"]["netid"] for e in events
                  if e["action"] == "register" and e["detail"]["affiliation"] == "affiliate"}
    stewards = {s for e in events
                if e["action"] == "project-create" and e["detail"]["project"] == project
                for s in e["detail"]["stewards"].split(",") if s}
    return sorted(stewards & affiliates)


def test_ledger_time_never_decreases_along_the_export(replayed_history):
    """Reports find their period by bisecting per-action event lists on
    `at`, which holds only while ledger time never goes backwards."""
    broker, _, events, _, times = replayed_history
    at = [e["at"] for e in events]
    assert all(a <= b for a, b in zip(at, at[1:]))
    assert len(times) > 10    # the replay advanced the clock several times
    assert broker.ledger.compliance_report("proj-aff", 0).affiliate_stewards == ["aff-1"]


@given(data=st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_compliance_report_matches_recount_on_any_window(replayed_history, data):
    broker, lines, events, projects, times = replayed_history
    project = data.draw(st.sampled_from(projects), label="project")
    # Window ends near the project's own event times, where an off-by-one
    # at a bound shows; many events share one time.
    own = sorted({e["at"] for e in events if e["detail"].get("project") == project})
    near = st.builds(operator.add, st.sampled_from(own), st.sampled_from((-1, 0, 1)))
    start, end = data.draw(st.one_of(
        st.tuples(near, near),                                    # either order
        st.tuples(near, near).map(lambda w: (max(w), min(w) - 1)),  # inverted
        near.map(lambda t: (t, t)),                               # one instant
        st.sampled_from(times).map(lambda t: (t + 1, t + DAY - 1)),  # a gap: no events
        st.sampled_from([(times[0] - 10, times[0] - 1),           # before the history
                         (times[-1] + 1, times[-1] + 10),         # after it
                         (times[0] - 1, times[-1] + 1)]),         # all of it
    ), label="window")
    report = broker.ledger.compliance_report(project, start, end).to_wire()
    expected = recount_report(lines, project, start, end)
    assert {key: report[key] for key in expected} == expected
    assert report["affiliate_stewards"] == _affiliate_stewards(events, project)
