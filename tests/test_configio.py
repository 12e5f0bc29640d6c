"""Loading topology and directory files: every shipped file loads, each
broken rule gets its own error class, and a malformed file is a client
error, never a traceback."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from enclavebroker import Broker, loadgen
from enclavebroker.cli import main
from enclavebroker.configio import build_broker, load_topology
from enclavebroker.errors import DanglingReference, SchemaError

CONFIGS = Path(__file__).parent.parent / "configs"
TOPOLOGY = CONFIGS / "topology-basic.json"
DIRECTORY = CONFIGS / "directory-basic.json"


def _zone(topo: dict, zone_id: str) -> dict:
    return next(z for z in topo["zones"] if z["id"] == zone_id)


def _write(tmp_path: Path, name: str, payload) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _files(tmp_path: Path, which: str, edit) -> tuple[Path, Path]:
    """The shipped topology and directory, with ``edit`` applied to one."""
    topo = json.loads(TOPOLOGY.read_text())
    directory = json.loads(DIRECTORY.read_text())
    edit(topo if which == "topology" else directory)
    return _write(tmp_path, "topo.json", topo), _write(tmp_path, "dir.json", directory)


def _gateway(**fields):
    entry = {"id": "gw-x", "kind": "vpn", "admits_to": "protected-vrf", "mode": "vpn"}
    entry.update(fields)
    return lambda t: t["gateways"].append(entry)


def _background_vm(**fields):
    entry = {"id": "bg-x", "zone": "campus", "host": "host-shared", "cpu": 1, "ram": 1}
    entry.update(fields)
    return lambda t: t["background_vms"].append(entry)


def _exception(**fields):
    entry = {"id": "exc-x", "service": "monitoring", "src": "management",
             "dst": "protected-vrf", "direction": "inbound", "documented_by": "why"}
    entry.update(fields)
    return lambda t: t["exceptions"].append(entry)


def _user(entry):
    return lambda d: d["users"].append(entry)


def _group(**fields):
    entry = {"name": "g-x", "kind": "role", "members": []}
    entry.update(fields)
    return lambda d: d["groups"].append(entry)


# A second topology entry under an id already taken.
DUPLICATE_IDS = {
    "duplicate-zone": lambda t: t["zones"].append({"id": "campus"}),
    "duplicate-gateway": _gateway(id="gw-vrf-vpn"),
    "duplicate-host": lambda t: t["hosts"].append({"id": "host-shared", "dedicated": False,
                                                   "cpu": 1024, "ram": 4096}),
    "duplicate-background-vm": _background_vm(id="bg-campus-web"),
    "duplicate-exception": _exception(id="exc-patching", service="ssh", src="internet"),
}

# One broken rule per case, and the error class that reports it.
SINGLE_FAULTS = {
    "unknown-zone-id": ("topology", lambda t: t["zones"].append({"id": "moonbase"}),
                        SchemaError),
    "campus-with-parent": ("topology",
                           lambda t: _zone(t, "campus").update(parent="protected-vrf"),
                           SchemaError),
    "undeclared-parent": ("topology",
                          lambda t: t["zones"].remove(_zone(t, "protected-vrf")),
                          DanglingReference),
    "gateway-to-unknown-zone": ("topology", _gateway(admits_to="moonbase"),
                                DanglingReference),
    "unmonitored-gateway": ("topology", _gateway(monitored=False), SchemaError),
    "unmonitored-gateway-to-unknown-zone": (
        "topology", _gateway(admits_to="moonbase", monitored=False), DanglingReference),
    "ssh-gateway-with-mode": ("topology", _gateway(kind="ssh", mode="vpn"), SchemaError),
    "host-without-cpu": ("topology",
                         lambda t: t["hosts"].append({"id": "h-x", "dedicated": False,
                                                      "cpu": 0, "ram": 4}),
                         SchemaError),
    "background-vm-on-unknown-host": ("topology", _background_vm(host="host-x"),
                                      DanglingReference),
    "background-vm-on-dedicated-host": ("topology", _background_vm(host="host-dedicated"),
                                        SchemaError),
    "undocumented-rule": ("topology", _exception(documented_by="  "), SchemaError),
    "unknown-service": ("topology", _exception(service="gopher"), SchemaError),
    **{case: ("topology", edit, SchemaError) for case, edit in DUPLICATE_IDS.items()},
    "duplicate-netid": ("directory", _user({"netid": "res1"}), SchemaError),
    "affiliate-without-sponsor": ("directory",
                                  _user({"netid": "bob-aff", "affiliation": "affiliate"}),
                                  SchemaError),
    "shadow-group": ("directory", _group(kind="shadow"), SchemaError),
    "access-group": ("directory", _group(kind="access-vpn", owning_project="study"),
                     SchemaError),
    "shadow-group-name": ("directory", _group(name="shadow:analysts"), SchemaError),
    "duplicate-group": ("directory", _group(name="analysts"), SchemaError),
    "unknown-group-member": ("directory", _group(members=["ghost"]), DanglingReference),
    "unknown-mapped-netid": ("directory",
                             lambda d: d["subject_map"]["idp.uni-a"].update(bob="ghost"),
                             DanglingReference),
}


@pytest.mark.parametrize("case", sorted(SINGLE_FAULTS))
def test_each_broken_rule_gets_its_error_class(tmp_path, case):
    which, edit, expected = SINGLE_FAULTS[case]
    topo, directory = _files(tmp_path, which, edit)
    with pytest.raises(expected) as err:
        build_broker(topo, directory)
    assert type(err.value) is expected
    assert ("topo.json" if which == "topology" else "dir.json") in str(err.value)


@pytest.mark.parametrize("case", sorted(DUPLICATE_IDS))
def test_duplicate_id_in_a_file_is_a_schema_error(tmp_path, capsys, case):
    topo, directory = _files(tmp_path, "topology", DUPLICATE_IDS[case])
    code = main(["init", "--topology", str(topo), "--directory", str(directory)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "duplicate-id" in err
    assert "Traceback" not in err


def test_duplicate_rule_in_a_file_adds_no_second_event(tmp_path):
    topo, directory = _files(tmp_path, "topology", _exception(id="exc-patching"))
    broker = Broker()
    with pytest.raises(SchemaError):
        load_topology(broker, topo)
    assert [e.object for e in broker.ledger.events if e.action == "exception-add"] == [
        "exc-patching"]
    assert broker.enclave.exceptions["exc-patching"].service == "patching"


def _set(section: str, index: int, **fields):
    return lambda data: data[section][index].update(fields)


# Files that are not what the format says: each is a schema error.
MALFORMED = {
    "zone-entry-is-a-string": ("topology", lambda t: t["zones"].append("campus")),
    "zones-is-an-object": ("topology",
                           lambda t: t.update(zones={z["id"]: z for z in t["zones"]})),
    "gateway-kind-unknown": ("topology", _set("gateways", 0, kind="tank")),
    "gateway-mode-unknown": ("topology", _set("gateways", 0, mode="telnet")),
    "exception-direction-unknown": ("topology", _set("exceptions", 0,
                                                     direction="sideways")),
    "exception-documented-by-a-number": ("topology", _set("exceptions", 0,
                                                          documented_by=5)),
    "host-cpu-a-word": ("topology", _set("hosts", 0, cpu="lots")),
    "host-dedicated-a-string": ("topology", _set("hosts", 1, dedicated="false")),
    "user-affiliation-unknown": ("directory", _set("users", 2, affiliation="alien")),
    "group-kind-unknown": ("directory", _set("groups", 0, kind="wizard")),
    "user-entry-is-a-string": ("directory", lambda d: d["users"].append("carol")),
    "issuer-mapped-to-a-list": ("directory",
                                lambda d: d["subject_map"].update({"idp.uni-a": ["alice"]})),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_is_a_schema_error(tmp_path, capsys, case):
    which, edit = MALFORMED[case]
    topo, directory = _files(tmp_path, which, edit)
    code = main(["init", "--topology", str(topo), "--directory", str(directory)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_exception_rules_in_a_topology_need_no_administrator():
    broker = build_broker(TOPOLOGY, DIRECTORY)
    event = next(e for e in broker.ledger.events if e.action == "exception-add")
    assert event.actor == "bootstrap"
    assert "bootstrap" not in broker.directory.admins


def _shipped():
    """Every shipped topology and directory file, as (topology, directory) pairs."""
    topologies = sorted(CONFIGS.glob("topology-*.json"))
    directories = sorted(CONFIGS.glob("directory-*.json"))
    return [(t, d) for t in topologies for d in directories]


@pytest.mark.parametrize("topology,directory", _shipped(),
                         ids=lambda p: p.name)
def test_shipped_config_files_load(topology, directory):
    broker = build_broker(topology, directory)
    assert broker.enclave.zones and broker.directory.netids()


def test_generated_files_load(tmp_path):
    topo = _write(tmp_path, "topology.json", loadgen.build_topology(16, 1024, 4096))
    directory = _write(tmp_path, "directory.json", loadgen.build_directory())
    broker = build_broker(topo, directory)
    assert len(broker.enclave.hosts) == 16
    assert broker.directory.has_user("res199")
