from __future__ import annotations

import hashlib
from collections import Counter

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    rule,
)

from enclavebroker.enclave import VmState
from enclavebroker.errors import (
    BrokerError,
    DigestMismatch,
    EmptyReport,
    InsideEnclaveSubmission,
    InvalidSpec,
    NotApproved,
    Unauthorized,
    UnknownInstance,
    WrongState,
)
from enclavebroker.pipeline import ImageState, payload_digest

from conftest import make_broker


def drafted(broker, payload="layers:v1", project="study", builder="res1"):
    return broker.pipeline.submit_image(builder, project, payload, source="campus")


def approved(broker, payload="layers:v1"):
    image = drafted(broker, payload)
    broker.pipeline.vet_image("vetter1", image.id, "scanned, no findings")
    broker.pipeline.approve_image("stw1", image.id)
    return image


class TestSubmit:
    def test_outside_build_accepted(self, broker):
        image = drafted(broker)
        assert image.state is ImageState.DRAFTED
        assert image.digest == hashlib.sha256(b"layers:v1").hexdigest()

    def test_submission_from_enclave_vm_rejected(self, broker):
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        with pytest.raises(InsideEnclaveSubmission):
            broker.pipeline.submit_image("res1", "study", "layers:v1", source=vm.id)

    def test_submission_from_enclave_zone_rejected(self, broker):
        with pytest.raises(InsideEnclaveSubmission):
            broker.pipeline.submit_image("res1", "study", "layers:v1",
                                         source="protected-vrf")

    def test_identical_payloads_share_digest(self, broker):
        a = drafted(broker)
        b = drafted(broker)
        assert a.id != b.id
        assert a.digest == b.digest


class TestVet:
    def test_vet_drafted(self, broker):
        image = drafted(broker)
        broker.pipeline.vet_image("vetter1", image.id, "clean")
        assert image.state is ImageState.VETTED
        assert image.vetter == "vetter1"

    def test_vet_approved_is_wrong_state(self, broker):
        image = approved(broker)
        with pytest.raises(WrongState):
            broker.pipeline.vet_image("vetter1", image.id, "again")

    def test_builder_self_vet_requires_role(self, broker):
        image = drafted(broker, builder="res1")
        with pytest.raises(Unauthorized):
            broker.pipeline.vet_image("res1", image.id, "looks fine to me")
        broker.directory.group("vetters").members.add("res1")
        second = drafted(broker, builder="res1")
        broker.pipeline.vet_image("res1", second.id, "self-vetted with role")
        assert second.state is ImageState.VETTED

    def test_empty_report(self, broker):
        image = drafted(broker)
        with pytest.raises(EmptyReport):
            broker.pipeline.vet_image("vetter1", image.id, " ")


class TestApprove:
    def test_steward_approves_vetted(self, broker):
        image = drafted(broker)
        broker.pipeline.vet_image("vetter1", image.id, "clean")
        broker.pipeline.approve_image("stw1", image.id)
        assert image.state is ImageState.APPROVED

    def test_approve_drafted_is_wrong_state(self, broker):
        image = drafted(broker)
        with pytest.raises(WrongState):
            broker.pipeline.approve_image("stw1", image.id)

    def test_outsider_cannot_approve(self, broker):
        image = drafted(broker)
        broker.pipeline.vet_image("vetter1", image.id, "clean")
        with pytest.raises(Unauthorized):
            broker.pipeline.approve_image("res3", image.id)

    def test_granted_researcher_may_approve(self, broker):
        broker.policy.grant_access("stw1", "study", "res1", "rdp")
        image = drafted(broker)
        broker.pipeline.vet_image("vetter1", image.id, "clean")
        broker.pipeline.approve_image("res1", image.id)
        assert image.approver == "res1"


class TestDeploy:
    def test_approved_image_deploys_into_enclave(self, broker):
        image = approved(broker)
        instance = broker.pipeline.deploy_image("admin1", image.id, "study", image.digest)
        vm = broker.enclave.vm(instance.vm_id)
        assert vm.zone in ("protected-vrf", "research-subnet")
        assert instance.digest_verified
        assert image.state is ImageState.DEPLOYED

    def test_drafted_image_rejected(self, broker):
        image = drafted(broker)
        with pytest.raises(NotApproved):
            broker.pipeline.deploy_image("admin1", image.id, "study", image.digest)

    def test_tampered_payload_rejected(self, broker):
        """Flip one bit of the payload; the recomputed digest must differ
        and deployment must refuse it."""
        payload = "layers:v1"
        image = approved(broker, payload)
        tampered = bytearray(payload.encode())
        tampered[0] ^= 0x01
        forged = hashlib.sha256(bytes(tampered)).hexdigest()
        assert forged != image.digest
        with pytest.raises(DigestMismatch):
            broker.pipeline.deploy_image("admin1", image.id, "study", forged)

    def test_digest_matches_independent_recompute(self, broker):
        image = approved(broker, "payload-xyz")
        assert image.digest == hashlib.sha256(b"payload-xyz").hexdigest()
        assert payload_digest("payload-xyz") == image.digest

    def test_non_admin_cannot_deploy(self, broker):
        image = approved(broker)
        with pytest.raises(Unauthorized):
            broker.pipeline.deploy_image("res1", image.id, "study", image.digest)


class TestUpdate:
    def test_replace_with_approved_v2(self, broker):
        v1 = approved(broker, "layers:v1")
        instance = broker.pipeline.deploy_image("admin1", v1.id, "study", v1.digest)
        v2 = approved(broker, "layers:v2")
        replacement = broker.pipeline.update_deployment("admin1", instance.id, v2.id)
        assert instance.retired
        assert replacement.vm_id == instance.vm_id
        assert replacement.image_id == v2.id

    def test_replace_with_unapproved_v2(self, broker):
        v1 = approved(broker, "layers:v1")
        instance = broker.pipeline.deploy_image("admin1", v1.id, "study", v1.digest)
        v2 = drafted(broker, "layers:v2")
        broker.pipeline.vet_image("vetter1", v2.id, "clean")
        with pytest.raises(NotApproved):
            broker.pipeline.update_deployment("admin1", instance.id, v2.id)

    def test_unknown_instance(self, broker):
        v2 = approved(broker, "layers:v2")
        with pytest.raises(UnknownInstance):
            broker.pipeline.update_deployment("admin1", "inst-9999", v2.id)

    def test_no_in_place_mutation_surface(self, broker):
        """The interface exposes no operation that patches a running image."""
        public = {name for name in dir(broker.pipeline) if not name.startswith("_")}
        assert public & {"patch_instance", "mutate_image", "update_image_payload",
                         "edit_image", "set_digest"} == set()
        image = approved(broker)
        digest_before = image.digest
        broker.pipeline.deploy_image("admin1", image.id, "study", image.digest)
        assert image.digest == digest_before


class TestLiveness:
    """An update places the new image only over a live instance: one that
    is not retired and whose VM still runs. A refusal changes nothing."""

    def test_update_on_destroyed_vm_is_invalid_spec(self, broker):
        v1 = approved(broker, "layers:v1")
        instance = broker.pipeline.deploy_image("admin1", v1.id, "study", v1.digest)
        broker.enclave.destroy_vm(instance.vm_id)
        v2 = approved(broker, "layers:v2")
        events = len(broker.ledger.events)
        with pytest.raises(InvalidSpec, match=f"^{instance.vm_id} is not running$"):
            broker.pipeline.update_deployment("admin1", instance.id, v2.id)
        assert len(broker.ledger.events) == events
        assert v2.state is ImageState.APPROVED
        assert v2.instance is None
        assert not instance.retired

    def test_second_update_of_one_instance_is_wrong_state(self, broker):
        v1 = approved(broker, "layers:v1")
        instance = broker.pipeline.deploy_image("admin1", v1.id, "study", v1.digest)
        v2 = approved(broker, "layers:v2")
        broker.pipeline.update_deployment("admin1", instance.id, v2.id)
        v3 = approved(broker, "layers:v3")
        events = len(broker.ledger.events)
        with pytest.raises(WrongState, match=f"^{instance.id} is retired$"):
            broker.pipeline.update_deployment("admin1", instance.id, v3.id)
        assert len(broker.ledger.events) == events
        assert v3.state is ImageState.APPROVED
        assert v3.instance is None


class TestRevoke:
    def test_revoke_tears_down_instances(self, broker):
        image = approved(broker)
        instance = broker.pipeline.deploy_image("admin1", image.id, "study", image.digest)
        broker.pipeline.revoke_image("admin1", image.id)
        assert image.state is ImageState.REVOKED
        assert broker.pipeline.instance(instance.id).retired

    def test_revoke_after_vm_destroyed_tears_down_nothing(self, broker):
        image = approved(broker)
        instance = broker.pipeline.deploy_image("admin1", image.id, "study", image.digest)
        broker.enclave.destroy_vm(instance.vm_id)
        broker.pipeline.revoke_image("admin1", image.id)
        revoke = broker.ledger.events[-1]
        assert (revoke.action, revoke.object) == ("image-revoke", image.id)
        assert revoke.detail["instances"] == ""


class TestExternalClosure:
    def test_deployed_vm_cannot_reach_external_origins(self, broker):
        image = approved(broker)
        instance = broker.pipeline.deploy_image("admin1", image.id, "study", image.digest)
        blocked = broker.enclave.is_reachable(instance.vm_id,
                                              "https://cran.example.org", "https")
        assert not blocked.allowed

    def test_preexisting_whitelist_still_works_but_deploy_never_widens(self, broker):
        whitelist_before = set(broker.policy.get_project("study").proxy_whitelist)
        image = approved(broker)
        instance = broker.pipeline.deploy_image("admin1", image.id, "study", image.digest)
        assert broker.policy.get_project("study").proxy_whitelist == whitelist_before
        allowed = broker.enclave.is_reachable(instance.vm_id,
                                              "https://provider.example.org", "https")
        assert allowed.allowed  # the entry predates the deployment


class TestPipelineSoundness:
    def test_ledger_trail_has_vet_then_approve_before_deploy(self, broker):
        image = approved(broker)
        broker.pipeline.deploy_image("admin1", image.id, "study", image.digest)
        actions = [e.action for e in broker.ledger.events
                   if e.object == image.id]
        assert actions.count("image-vet") == 1
        assert actions.count("image-approve") == 1
        assert actions.index("image-vet") < actions.index("image-approve")
        assert actions.index("image-approve") < actions.index("image-deploy")


class PipelineLifecycle(RuleBasedStateMachine):
    """Random walks over submit, vet, approve, deploy, update, revoke and VM
    destruction, against a reference model of which instances are live."""

    images = Bundle("images")
    instances = Bundle("instances")
    steward = {"study": "stw1", "atlas": "stw2"}

    def __init__(self):
        super().__init__()
        self.broker = make_broker(seed=5)
        self.pipeline = self.broker.pipeline
        self.live: set[str] = set()  # instance ids the model holds live

    def _refused(self, call) -> bool:
        """Run ``call``; a refusal must leave the ledger as it was."""
        events = len(self.broker.ledger.events)
        try:
            call()
        except BrokerError:
            assert len(self.broker.ledger.events) == events
            return True
        return False

    def _is_live(self, instance) -> bool:
        return (not instance.retired
                and self.broker.enclave.vm(instance.vm_id).state is not VmState.DESTROYED)

    @initialize(target=instances)
    def first_deployment(self):
        image_id = self.submit_approved("study", 0)
        return self.deploy(image_id, None)

    @rule(target=images, project=st.sampled_from(["study", "atlas"]),
          version=st.integers(0, 3))
    def submit(self, project, version):
        return self.pipeline.submit_image("res1", project, f"layers:v{version}", "campus").id

    @rule(target=images, project=st.sampled_from(["study", "atlas"]),
          version=st.integers(0, 3))
    def submit_approved(self, project, version):
        """Submit, vet and approve in one step, so that walks reach deployment."""
        image_id = self.submit(project, version)
        self.vet(image_id)
        self.approve(image_id)
        return image_id

    @rule(image_id=images)
    def vet(self, image_id):
        drafted = self.pipeline.image(image_id).state is ImageState.DRAFTED
        refused = self._refused(lambda: self.pipeline.vet_image("vetter1", image_id, "ok"))
        assert refused == (not drafted)

    @rule(image_id=images)
    def approve(self, image_id):
        image = self.pipeline.image(image_id)
        vetted = image.state is ImageState.VETTED
        refused = self._refused(lambda: self.pipeline.approve_image(
            self.steward[image.project_id], image_id))
        assert refused == (not vetted)

    @rule(target=instances, image_id=images, onto=st.none() | instances)
    def deploy(self, image_id, onto):
        """Deploy onto a fresh VM, or onto the VM of an earlier instance."""
        image = self.pipeline.image(image_id)
        vm_id = None if onto is None else self.pipeline.instance(onto).vm_id
        expected = image.state is ImageState.APPROVED
        if vm_id is not None:
            vm = self.broker.enclave.vm(vm_id)
            expected = (expected and vm.project_id == image.project_id
                        and vm.state is VmState.RUNNING)
        placed = []
        refused = self._refused(lambda: placed.append(self.pipeline.deploy_image(
            "admin1", image_id, image.project_id, image.digest, vm_id)))
        assert refused == (not expected)
        if refused:
            return multiple()
        assert image.instance == placed[0].id
        self.live.add(placed[0].id)
        return placed[0].id

    @rule(target=instances, instance_id=instances, image_id=st.none() | images)
    def update(self, instance_id, image_id):
        """Update to an earlier image, or to a fresh approved one."""
        project = self.pipeline.image(self.pipeline.instance(instance_id).image_id).project_id
        if image_id is None:
            image_id = self.submit_approved(project, 1)
        image = self.pipeline.image(image_id)
        expected = (instance_id in self.live and image.state is ImageState.APPROVED
                    and image.project_id == project)
        placed = []
        refused = self._refused(lambda: placed.append(
            self.pipeline.update_deployment("admin1", instance_id, image_id)))
        assert refused == (not expected)
        if refused:
            return multiple()
        # The replaced instance was live until this update.
        deploy = self.broker.ledger.events[-1]
        assert (deploy.action, deploy.detail["replaces"]) == ("image-deploy", instance_id)
        self.live.discard(instance_id)
        self.live.add(placed[0].id)
        return placed[0].id

    @rule(image_id=images)
    def revoke(self, image_id):
        linked = self.pipeline.image(image_id).instance
        torn_down = linked if linked in self.live else ""
        self.pipeline.revoke_image("admin1", image_id)
        assert self.broker.ledger.events[-1].detail["instances"] == torn_down
        self.live.discard(torn_down)

    @rule(instance_id=instances)
    def destroy_vm(self, instance_id):
        vm_id = self.pipeline.instance(instance_id).vm_id
        running = self.broker.enclave.vm(vm_id).state is not VmState.DESTROYED
        assert self._refused(lambda: self.broker.enclave.destroy_vm(vm_id)) == (not running)
        self.live = {iid for iid in self.live if self.pipeline.instance(iid).vm_id != vm_id}

    @invariant()
    def an_image_has_at_most_one_instance(self):
        per_image = Counter(i.image_id for i in self.pipeline._instances.values())
        assert max(per_image.values(), default=0) <= 1
        for image_id in per_image:
            linked = self.pipeline.image(image_id).instance
            assert self.pipeline.instance(linked).image_id == image_id

    @invariant()
    def model_liveness_matches(self):
        for iid, instance in self.pipeline._instances.items():
            assert self._is_live(instance) == (iid in self.live)

    @invariant()
    def an_instance_is_replaced_at_most_once(self):
        replaced = [e.detail["replaces"] for e in self.broker.ledger.events
                    if e.action == "image-deploy" and "replaces" in e.detail]
        assert len(replaced) == len(set(replaced))

    @invariant()
    def a_revoked_image_has_no_live_instance(self):
        for image in self.pipeline._images.values():
            if image.state is ImageState.REVOKED and image.instance is not None:
                assert not self._is_live(self.pipeline.instance(image.instance))


TestPipelineLifecycle = PipelineLifecycle.TestCase
TestPipelineLifecycle.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
