from __future__ import annotations

import pytest

from enclavebroker.enclave import AccessContext, VmState
from enclavebroker.errors import (
    AlreadyDestroyed,
    ContentDestroyed,
    DuplicateId,
    InvalidSpec,
    IsolationRequired,
    NoCapacity,
    NoDedicatedHost,
    ProtocolForbidden,
    Unauthorized,
    UndocumentedRule,
    UnknownEndpoint,
    UnknownService,
    UnknownShare,
)
from enclavebroker.model import AccessMode

from conftest import make_broker


class TestProvision:
    def test_shared_host_by_default(self, broker):
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16, False)
        assert not broker.enclave.hosts[vm.host_id].dedicated_to_enclave
        assert vm.state is VmState.RUNNING
        assert vm.disk

    def test_dedicated_placement(self, broker):
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16, True)
        assert broker.enclave.hosts[vm.host_id].dedicated_to_enclave

    def test_zero_cpu_rejected(self, broker):
        with pytest.raises(InvalidSpec):
            broker.enclave.provision_vm("study", "research-subnet", 0, 16)

    def test_non_enclave_zone_rejected(self, broker):
        with pytest.raises(InvalidSpec):
            broker.enclave.provision_vm("study", "campus", 4, 16)

    def test_no_capacity(self, broker):
        with pytest.raises(NoCapacity):
            broker.enclave.provision_vm("study", "research-subnet", 65, 16)

    def test_no_dedicated_host(self):
        b = make_broker()
        del b.enclave.hosts["host-b"]
        with pytest.raises(NoDedicatedHost):
            b.enclave.provision_vm("study", "research-subnet", 4, 16, True)

    def test_capacity_accounts_across_vms(self, broker):
        for _ in range(4):
            broker.enclave.provision_vm("study", "research-subnet", 16, 64, False)
        with pytest.raises(NoCapacity):
            broker.enclave.provision_vm("study", "research-subnet", 16, 64, False)

    def test_generated_id_skips_a_background_vm(self, broker):
        """A background VM that holds the next generated id keeps it, and
        its host keeps both VMs charged."""
        broker.enclave.add_background_vm("vm-0001", "campus", "host-a", 2, 4)
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        assert vm.id == "vm-0002"
        assert sorted(broker.enclave.vms) == ["vm-0001", "vm-0002"]
        assert broker.enclave.vms["vm-0001"].project_id != "study"
        host = broker.enclave.hosts["host-a"]
        assert (host.used_cpu, host.used_ram) == (2 + 4, 4 + 16)


class TestResize:
    def test_grow_within_capacity(self, broker):
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        resized = broker.enclave.resize_vm(vm.id, 4, 64)
        assert resized.ram == 64
        assert resized.disk == vm.disk

    def test_resize_to_same_spec_is_noop(self, broker):
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        resized = broker.enclave.resize_vm(vm.id, 4, 16)
        assert (resized.cpu, resized.ram) == (4, 16)

    def test_resize_destroyed(self, broker):
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        broker.enclave.destroy_vm(vm.id)
        from enclavebroker.errors import VmDestroyed
        with pytest.raises(VmDestroyed):
            broker.enclave.resize_vm(vm.id, 8, 32)

    def test_resize_beyond_host(self, broker):
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        with pytest.raises(NoCapacity):
            broker.enclave.resize_vm(vm.id, 128, 16)


class TestDestroy:
    def test_disk_unreadable_after_destroy(self, broker):
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        broker.enclave.destroy_vm(vm.id)
        with pytest.raises(ContentDestroyed):
            broker.enclave.read_disk(vm.id)

    def test_destroy_twice(self, broker):
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        broker.enclave.destroy_vm(vm.id)
        with pytest.raises(AlreadyDestroyed):
            broker.enclave.destroy_vm(vm.id)

    def test_destroy_releases_capacity(self, broker):
        vm = broker.enclave.provision_vm("study", "research-subnet", 32, 128)
        host = broker.enclave.hosts[vm.host_id]
        used = (host.used_cpu, host.used_ram)
        broker.enclave.destroy_vm(vm.id)
        assert (host.used_cpu, host.used_ram) == (used[0] - 32, used[1] - 128)

    def test_write_then_destroy_loses_content(self, broker):
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        broker.enclave.write_disk(vm.id, "results-v1")
        assert broker.enclave.read_disk(vm.id) == "results-v1"
        broker.enclave.destroy_vm(vm.id)
        with pytest.raises(ContentDestroyed):
            broker.enclave.read_disk(vm.id)


class TestShares:
    def test_cifs_share_is_resizable(self, broker):
        share = broker.enclave.create_share("study", "cifs", 2.0, False)
        assert share.resizable
        assert share.protocol.value == "cifs"

    def test_nfs_forbidden(self, broker):
        with pytest.raises(ProtocolForbidden):
            broker.enclave.create_share("study", "nfs", 1.0, False)

    def test_iscsi_requires_dedicated_device(self, broker):
        with pytest.raises(IsolationRequired):
            broker.enclave.create_share("study", "iscsi", 1.0, False)

    def test_iscsi_dedicated_is_not_resizable(self, broker):
        share = broker.enclave.create_share("study", "iscsi", 1.0, True)
        assert share.dedicated_device
        assert not share.resizable

    def test_protocol_closure(self, broker):
        broker.enclave.create_share("study", "cifs", 1.0)
        broker.enclave.create_share("study", "iscsi", 1.0, True)
        protocols = {s.protocol.value for s in broker.enclave.shares.values()}
        assert protocols <= {"cifs", "iscsi"}

    def test_acl_set_by_steward(self, broker):
        share = broker.enclave.create_share("study", "cifs", 1.0)
        broker.enclave.set_share_acl("stw1", share.id, {"study-rdp"})
        assert share.acl_groups == {"study-rdp"}

    def test_acl_set_by_non_steward(self, broker):
        share = broker.enclave.create_share("study", "cifs", 1.0)
        with pytest.raises(Unauthorized):
            broker.enclave.set_share_acl("res1", share.id, {"study-rdp"})

    def test_empty_acl_is_valid(self, broker):
        share = broker.enclave.create_share("study", "cifs", 1.0)
        broker.enclave.set_share_acl("stw1", share.id, set())
        assert share.acl_groups == set()

    def test_unknown_share(self, broker):
        with pytest.raises(UnknownShare):
            broker.enclave.set_share_acl("stw1", "share-9999", set())


class TestExceptions:
    def test_admin_registers_documented_rule(self, broker):
        rule_id = broker.enclave.register_exception(
            "admin1", service="patching", src="management", dst="protected-vrf",
            direction="inbound", documented_by="system update service")
        assert rule_id in broker.enclave.exceptions

    def test_undocumented_rule(self, broker):
        with pytest.raises(UndocumentedRule):
            broker.enclave.register_exception(
                "admin1", service="patching", src="management", dst="protected-vrf",
                direction="inbound", documented_by="  ")

    def test_steward_cannot_register(self, broker):
        with pytest.raises(Unauthorized):
            broker.enclave.register_exception(
                "stw1", service="patching", src="management", dst="protected-vrf",
                direction="inbound", documented_by="x")

    def test_ssh_gateway_inert_without_exception(self, broker):
        """SSH gateways are representable but admit nothing on their own;
        an exception rule is what switches the path on."""
        broker.enclave.add_gateway("gw-ssh", "ssh", "research-subnet", None)
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        assert not broker.enclave.is_reachable("campus", vm.id, "ssh").allowed
        broker.enclave.register_exception(
            "admin1", service="ssh", src="campus", dst=vm.id,
            direction="inbound", documented_by="approved ssh path for study")
        assert broker.enclave.is_reachable("campus", vm.id, "ssh").allowed


    def _rule(self, broker, rule_id=None, **fields):
        args = {"service": "ssh", "src": "campus", "dst": "research-subnet",
                "direction": "inbound", "documented_by": "approved ssh path"}
        args.update(fields)
        return broker.enclave.register_exception("admin1", rule_id=rule_id, **args)

    def test_duplicate_rule_id_rejected_without_an_event(self, broker):
        self._rule(broker, "exc-patching", service="patching", src="management")
        events = len(broker.ledger)
        with pytest.raises(DuplicateId):
            self._rule(broker, "exc-patching", src="internet")
        rule = broker.enclave.exceptions["exc-patching"]
        assert (rule.service, rule.src) == ("patching", "management")
        assert len(broker.ledger) == events

    def test_wire_client_cannot_overwrite_a_rule(self, broker):
        self._rule(broker, "exc-patching", service="patching", src="management")
        events = len(broker.ledger)
        with pytest.raises(DuplicateId) as err:
            broker.op("register_exception", {
                "actor": "admin1", "id": "exc-patching", "service": "ssh",
                "src": "internet", "dst": "research-subnet", "documented_by": "x"})
        assert err.value.code == "duplicate-id"
        assert broker.enclave.exceptions["exc-patching"].service == "patching"
        assert len(broker.ledger) == events

    def test_auto_rule_ids_skip_taken_ones(self, broker):
        self._rule(broker, "exc-0001")
        self._rule(broker, "exc-0003")
        assert [self._rule(broker) for _ in range(3)] == ["exc-0002", "exc-0004", "exc-0005"]

    def test_overlapping_rules_lowest_id_wins(self, broker):
        """Several rules admit the same flow: the verdict names the rule
        with the lowest id, whatever order they were registered in."""
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        self._rule(broker, "exc-zone", dst="research-subnet")
        self._rule(broker, "exc-other-service", service="https", dst=vm.id)
        self._rule(broker, "exc-outbound", direction="outbound", dst=vm.id)
        self._rule(broker, "exc-vm", dst=vm.id)
        self._rule(broker, "exc-campus-zone", dst=vm.id)
        decision = broker.enclave.is_reachable("campus", vm.id, "ssh")
        assert decision.allowed
        assert decision.reason == "exception:exc-campus-zone"
        assert decision.path == ["campus", "exception:exc-campus-zone", vm.id]
        # Without the lowest matching id the next one by id order wins.
        del broker.enclave.exceptions["exc-campus-zone"]
        assert broker.enclave.is_reachable("campus", vm.id, "ssh").reason == "exception:exc-vm"
        del broker.enclave.exceptions["exc-vm"]
        assert broker.enclave.is_reachable("campus", vm.id, "ssh").reason == "exception:exc-zone"


class TestDuplicateIds:
    """No topology entry is ever replaced by a later one with the same id."""

    def test_zone(self, broker):
        with pytest.raises(DuplicateId):
            broker.enclave.add_zone("campus")

    def test_gateway(self, broker):
        before = broker.enclave.gateways["gw-research-jump"]
        with pytest.raises(DuplicateId):
            broker.enclave.add_gateway("gw-research-jump", "vpn", "protected-vrf", "vpn")
        assert broker.enclave.gateways["gw-research-jump"] is before

    def test_host(self, broker):
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        host = broker.enclave.hosts[vm.host_id]
        with pytest.raises(DuplicateId):
            broker.enclave.add_host(vm.host_id, False, 1024, 4096)
        assert broker.enclave.hosts[vm.host_id] is host
        assert host.used_cpu == 4

    def test_background_vm(self, broker):
        broker.enclave.add_background_vm("bg-web", "campus", "host-a", 2, 4)
        with pytest.raises(DuplicateId):
            broker.enclave.add_background_vm("bg-web", "campus", "host-a", 2, 4)
        assert broker.enclave.hosts["host-a"].used_cpu == 2


class TestReachability:
    def test_no_direct_ingress(self, broker):
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        decision = broker.enclave.is_reachable("internet", vm.id, "cifs")
        assert not decision.allowed
        assert decision.reason == "no-direct-ingress"

    def test_session_through_gateway(self, broker):
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        ctx = AccessContext("internet", AccessMode.RDP, "study",
                            frozenset({AccessMode.RDP}))
        decision = broker.enclave.is_reachable(ctx, vm.id, "rdp")
        assert decision.allowed
        gateways = [hop for hop in decision.path if hop in broker.enclave.gateways]
        assert len(gateways) == 1

    def test_wrong_mode_denied(self, broker):
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        ctx = AccessContext("internet", AccessMode.RDP, "study",
                            frozenset({AccessMode.RDP}))
        decision = broker.enclave.is_reachable(ctx, vm.id, "ssh")
        assert not decision.allowed

    def test_cross_project_host_acl(self, broker):
        vm = broker.enclave.provision_vm("atlas", "protected-vrf", 4, 16)
        ctx = AccessContext("internet", AccessMode.RDP, "study",
                            frozenset({AccessMode.RDP}))
        decision = broker.enclave.is_reachable(ctx, vm.id, "rdp")
        assert not decision.allowed
        assert decision.reason == "host-acl"

    def test_exception_path(self, broker):
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        broker.enclave.register_exception(
            "admin1", service="patching", src="management", dst=vm.id,
            direction="inbound", documented_by="patch window")
        decision = broker.enclave.is_reachable("management", vm.id, "patching")
        assert decision.allowed
        assert decision.reason.startswith("exception:")
        # the exception is pinned to its declared source
        assert not broker.enclave.is_reachable("internet", vm.id, "patching").allowed

    def test_research_subnet_needs_own_gateway(self, broker):
        """A gateway into the outer VRF does not admit to the nested subnet."""
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        b2 = make_broker()
        del b2.enclave.gateways["gw-research-jump"]
        del b2.enclave.gateways["gw-research-vpn"]
        vm2 = b2.enclave.provision_vm("study", "research-subnet", 4, 16)
        ctx = AccessContext("internet", AccessMode.RDP, "study",
                            frozenset({AccessMode.RDP}))
        assert broker.enclave.is_reachable(ctx, vm.id, "rdp").allowed
        assert not b2.enclave.is_reachable(ctx, vm2.id, "rdp").allowed

    def test_zone_isolation_between_enclave_zones(self, broker):
        vm_inner = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        vm_outer = broker.enclave.provision_vm("atlas", "protected-vrf", 4, 16)
        decision = broker.enclave.is_reachable(vm_outer.id, vm_inner.id, "ssh")
        assert not decision.allowed
        assert decision.reason == "zone-isolation"

    def test_intra_zone_same_project(self, broker):
        a = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        b = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        assert broker.enclave.is_reachable(a.id, b.id, "ssh").allowed

    def test_intra_zone_cross_project_denied(self, broker):
        a = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        broker.policy.get_project("atlas").zone = "research-subnet"
        c = broker.enclave.provision_vm("atlas", "research-subnet", 4, 16)
        decision = broker.enclave.is_reachable(a.id, c.id, "ssh")
        assert not decision.allowed
        assert decision.reason == "project-isolation"

    def test_share_protocol_must_match(self, broker):
        share = broker.enclave.create_share("study", "cifs", 1.0)
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        assert broker.enclave.is_reachable(vm.id, share.id, "cifs").allowed
        decision = broker.enclave.is_reachable(vm.id, share.id, "ssh")
        assert decision.reason == "service-mismatch"

    def test_unknown_service(self, broker):
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        with pytest.raises(UnknownService):
            broker.enclave.is_reachable("internet", vm.id, "gopher")

    def test_unknown_endpoint(self, broker):
        with pytest.raises(UnknownEndpoint):
            broker.enclave.is_reachable("internet", "vm-9999", "rdp")

    def test_destroyed_vm_is_not_an_endpoint(self, broker):
        """Exception rules on a destroyed VM open no path to or from it, and
        a refused query leaves no traverse event."""
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        origin = "https://provider.example.org"
        broker.op("register_exception", {"actor": "admin1", "service": "https",
                                         "src": "campus", "dst": vm.id,
                                         "documented_by": "inbound"})
        broker.op("register_exception", {"actor": "admin1", "service": "https",
                                         "src": vm.id, "dst": origin,
                                         "direction": "outbound",
                                         "documented_by": "outbound"})
        queries = [{"src": "campus", "dst": vm.id, "service": "https"},
                   {"src": vm.id, "dst": origin, "service": "https"}]
        for query in queries:
            assert broker.op("is_reachable", query)["verdict"] == "allow"
        broker.enclave.destroy_vm(vm.id)
        before = len(broker.ledger)
        for query in queries:
            with pytest.raises(UnknownEndpoint):
                broker.op("is_reachable", query)
        assert len(broker.ledger) == before

    def test_every_verdict_names_a_known_rule(self, broker):
        """Reasons come from a closed catalog; none are empty."""
        import random
        from topogen import engine_answer, random_topology
        catalog_prefixes = ("outside-enclave", "intra-zone", "gateway:",
                            "exception:", "proxy-whitelist", "no-direct-ingress",
                            "no-gateway", "mode-mismatch", "not-authorized",
                            "host-acl", "zone-isolation", "project-isolation",
                            "minimal-egress", "service-mismatch",
                            "service-not-admitted")
        rng = random.Random(17)
        for _ in range(5):
            enclave, _, queries = random_topology(rng)
            for q in queries:
                decision = engine_answer(enclave, q)
                assert decision.reason.startswith(catalog_prefixes), decision.reason


class TestProxy:
    def test_whitelisted_origin(self, broker):
        decision = broker.enclave.proxy_fetch("study", "https://provider.example.org/data.zip")
        assert decision.allowed

    def test_arbitrary_origin_denied(self, broker):
        decision = broker.enclave.proxy_fetch("study", "https://evil.example.net/x")
        assert not decision.allowed

    def test_host_match_is_case_insensitive(self, broker):
        decision = broker.enclave.proxy_fetch("study", "https://PROVIDER.example.ORG/data")
        assert decision.allowed

    def test_every_attempt_logged(self, broker):
        before = len(broker.ledger)
        broker.enclave.proxy_fetch("study", "https://provider.example.org/a")
        broker.enclave.proxy_fetch("study", "https://nope.example.net/b")
        events = broker.ledger.events[before:]
        assert [e.action for e in events] == ["proxy-fetch", "proxy-fetch"]
        assert {e.detail["verdict"] for e in events} == {"allow", "deny"}

    def test_vm_cannot_bypass_proxy(self, broker):
        """Outbound from inside only works through the whitelist; a direct
        path to a non-whitelisted origin does not exist."""
        vm = broker.enclave.provision_vm("study", "research-subnet", 4, 16)
        via_proxy = broker.enclave.is_reachable(vm.id, "https://provider.example.org", "https")
        assert via_proxy.allowed
        direct = broker.enclave.is_reachable(vm.id, "https://evil.example.net", "https")
        assert not direct.allowed
        assert direct.reason == "minimal-egress"

    def test_dedicated_host_purity(self, broker):
        """No reachable state puts a non-enclave VM on a dedicated host."""
        from enclavebroker.errors import SchemaError
        with pytest.raises(SchemaError):
            broker.enclave.add_background_vm("bg-1", "campus", "host-b", 2, 4)
        broker.enclave.add_background_vm("bg-2", "campus", "host-a", 2, 4)
        for vm in broker.enclave.vms.values():
            if broker.enclave.hosts[vm.host_id].dedicated_to_enclave:
                assert vm.zone in ("protected-vrf", "research-subnet")
