"""Delivery pipeline: images built and vetted outside, approval-gated inside.

The image state machine is strict: drafted -> vetted -> approved -> deployed,
with revocation reachable from anywhere. There is deliberately no operation
that mutates a deployed instance in place; updating means pushing a new
image through the whole pipeline and replacing the instance.

Deploy and update share one placement path, so an image is deployed at most
once and only onto a running VM. An instance is live while it is not retired
and its VM is not destroyed. An update refuses a retired instance
(wrong-state) and a VM that is not running (invalid-spec); revoking an image
tears down its instance if that instance is live.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

from .clock import SimClock
from .enclave import Enclave, VmState
from .errors import (
    DigestMismatch,
    EmptyReport,
    InsideEnclaveSubmission,
    InvalidSpec,
    NotApproved,
    Unauthorized,
    UnknownImage,
    UnknownInstance,
    WrongState,
)
from .identity import Directory
from .ledger import AuditLedger
from .model import ENCLAVE_ZONES
from .policy import PolicyEngine

VETTER_GROUP = "vetters"


class ImageState(str, Enum):
    DRAFTED = "drafted"
    VETTED = "vetted"
    APPROVED = "approved"
    DEPLOYED = "deployed"
    REVOKED = "revoked"


def payload_digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class ContainerImage:
    id: str
    digest: str
    state: ImageState
    builder: str
    project_id: str
    vetter: str | None = None
    approver: str | None = None
    # Deploy and update both place only an approved image, and placing it
    # makes it deployed, so an image has at most one instance.
    instance: str | None = None

    def to_wire(self) -> dict:
        return {
            "image_id": self.id,
            "digest": self.digest,
            "state": self.state.value,
            "builder": self.builder,
            "vetter": self.vetter,
            "approver": self.approver,
            "project": self.project_id,
        }


@dataclass
class DeployedInstance:
    id: str
    image_id: str
    vm_id: str
    deployed_at: int
    digest_verified: bool = True
    retired: bool = False

    def to_wire(self) -> dict:
        return {
            "instance": self.id,
            "image": self.image_id,
            "vm": self.vm_id,
            "deployed_at": self.deployed_at,
            "digest_verified": self.digest_verified,
            "retired": self.retired,
        }


class DeliveryPipeline:
    def __init__(self, directory: Directory, policy: PolicyEngine, enclave: Enclave,
                 ledger: AuditLedger, clock: SimClock):
        self._directory = directory
        self._policy = policy
        self._enclave = enclave
        self._ledger = ledger
        self._clock = clock
        self._images: dict[str, ContainerImage] = {}
        self._instances: dict[str, DeployedInstance] = {}
        self._image_seq = 0
        self._instance_seq = 0

    def image(self, image_id: str) -> ContainerImage:
        image = self._images.get(image_id)
        if image is None:
            raise UnknownImage(image_id)
        return image

    def instance(self, instance_id: str) -> DeployedInstance:
        instance = self._instances.get(instance_id)
        if instance is None:
            raise UnknownInstance(instance_id)
        return instance

    def submit_image(self, builder: str, project_id: str, payload: str,
                     source: str) -> ContainerImage:
        """``source`` is the zone or endpoint the build is submitted from;
        builds may not originate inside the enclave."""
        self._policy.get_project(project_id)
        source_zone = source
        vm = self._enclave.vms.get(source)
        if vm is not None:
            source_zone = vm.zone
        if source_zone in ENCLAVE_ZONES:
            raise InsideEnclaveSubmission(source)
        self._image_seq += 1
        image = ContainerImage(
            id=f"img-{self._image_seq:04d}",
            digest=payload_digest(payload),
            state=ImageState.DRAFTED,
            builder=builder,
            project_id=project_id,
        )
        self._images[image.id] = image
        self._ledger.append(builder, "image-submit", image.id, {
            "project": project_id,
            "digest": image.digest,
            "source": source,
        })
        return image

    def vet_image(self, vetter: str, image_id: str, report: str) -> ContainerImage:
        image = self.image(image_id)
        if image.state is not ImageState.DRAFTED:
            raise WrongState(f"{image_id} is {image.state.value}, not drafted")
        if not self._directory.is_member(VETTER_GROUP, vetter):
            raise Unauthorized(f"{vetter} does not hold the vetter role")
        if not report or not report.strip():
            raise EmptyReport(image_id)
        image.state = ImageState.VETTED
        image.vetter = vetter
        self._ledger.append(vetter, "image-vet", image_id, {
            "project": image.project_id,
            "report": report,
        })
        return image

    def approve_image(self, approver: str, image_id: str) -> ContainerImage:
        image = self.image(image_id)
        if image.state is not ImageState.VETTED:
            raise WrongState(f"{image_id} is {image.state.value}, not vetted")
        project = self._policy.get_project(image.project_id)
        designated = (approver in project.stewards
                      or self._directory.is_member(project.vpn_group, approver)
                      or self._directory.is_member(project.rdp_group, approver))
        if not designated:
            raise Unauthorized(f"{approver} is not a steward or researcher of {project.id}")
        image.state = ImageState.APPROVED
        image.approver = approver
        self._ledger.append(approver, "image-approve", image_id, {
            "project": image.project_id,
        })
        return image

    def deploy_image(self, operator: str, image_id: str, project_id: str,
                     presented_digest: str, vm_id: str | None = None) -> DeployedInstance:
        image = self.image(image_id)
        if not self._directory.is_admin(operator):
            raise Unauthorized(f"{operator} is not a platform administrator")
        if image.project_id != project_id:
            raise Unauthorized(f"{image_id} targets {image.project_id}, not {project_id}")
        if image.state is not ImageState.APPROVED:
            raise NotApproved(f"{image_id} is {image.state.value}")
        if presented_digest != image.digest:
            raise DigestMismatch(image_id)
        project = self._policy.get_project(project_id)
        if vm_id is None:
            vm = self._enclave.provision_vm(project_id, project.zone, 4, 16)
        else:
            vm = self._enclave.vm(vm_id)
            if vm.zone not in ENCLAVE_ZONES or vm.project_id != project_id:
                raise InvalidSpec(f"{vm_id} is not an enclave VM of {project_id}")
        return self._place(operator, image, vm.id)

    def update_deployment(self, operator: str, instance_id: str,
                          new_image_id: str) -> DeployedInstance:
        old = self.instance(instance_id)
        new_image = self.image(new_image_id)
        if not self._directory.is_admin(operator):
            raise Unauthorized(f"{operator} is not a platform administrator")
        if new_image.state is not ImageState.APPROVED:
            raise NotApproved(f"{new_image_id} is {new_image.state.value}")
        old_image = self.image(old.image_id)
        if new_image.project_id != old_image.project_id:
            raise WrongState("replacement image targets a different project")
        if old.retired:
            raise WrongState(f"{instance_id} is retired")
        return self._place(operator, new_image, old.vm_id, replaces=old)

    def _place(self, operator: str, image: ContainerImage, vm_id: str,
               replaces: DeployedInstance | None = None) -> DeployedInstance:
        """Deploy ``image`` onto ``vm_id``, retiring ``replaces`` on an update.
        A refusal changes nothing."""
        if self._enclave.vm(vm_id).state is not VmState.RUNNING:
            raise InvalidSpec(f"{vm_id} is not running")
        self._instance_seq += 1
        instance = DeployedInstance(
            id=f"inst-{self._instance_seq:04d}",
            image_id=image.id,
            vm_id=vm_id,
            deployed_at=self._clock.now,
        )
        self._instances[instance.id] = instance
        image.state = ImageState.DEPLOYED
        image.instance = instance.id
        detail = {
            "project": image.project_id,
            "instance": instance.id,
            "vm": vm_id,
            "digest": image.digest,
        }
        if replaces is not None:
            replaces.retired = True
            detail["replaces"] = replaces.id
        self._ledger.append(operator, "image-deploy", image.id, detail)
        return instance

    def revoke_image(self, actor: str, image_id: str) -> ContainerImage:
        image = self.image(image_id)
        if not self._directory.is_admin(actor):
            raise Unauthorized(f"{actor} is not a platform administrator")
        image.state = ImageState.REVOKED
        instance = self._instances.get(image.instance)
        live = (instance is not None and not instance.retired
                and self._enclave.vm(instance.vm_id).state is not VmState.DESTROYED)
        if live:
            instance.retired = True
        self._ledger.append(actor, "image-revoke", image_id, {
            "project": image.project_id,
            "instances": instance.id if live else "",
        })
        return image
