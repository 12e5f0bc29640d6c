from __future__ import annotations

import gc
import json
import socket
import threading
from pathlib import Path

import pytest

from enclavebroker.broker import OPS
from enclavebroker.cli import _client_payload, build_parser, main
from enclavebroker.configio import (
    Scenario,
    StepResult,
    build_broker,
    load_scenario,
    run_scenario,
)
from enclavebroker.errors import DanglingReference, ParseError, SchemaError
from enclavebroker.ledger import AuditLedger
from enclavebroker.service import (
    MAX_REQUEST_BYTES,
    BrokerServer,
    handle_request_line,
    request,
)

CONFIGS = Path(__file__).parent.parent / "configs"
TOPOLOGY = CONFIGS / "topology-basic.json"
DIRECTORY = CONFIGS / "directory-basic.json"
SCENARIO = CONFIGS / "scenario-research-basic.json"


def write_json(tmp_path: Path, name: str, payload: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestLoad:
    def test_example_topology_loads(self):
        broker = build_broker(TOPOLOGY, DIRECTORY)
        assert "research-subnet" in broker.enclave.zones
        assert broker.directory.has_user("alice-aff")
        # 12 declared nodes: 5 zones + 3 gateways + 2 hosts + 1 background vm
        # + 1 exception rule
        count = (len(broker.enclave.zones) + len(broker.enclave.gateways)
                 + len(broker.enclave.hosts) + len(broker.enclave.vms)
                 + len(broker.enclave.exceptions))
        assert count == 12

    def test_gateway_referencing_missing_zone(self, tmp_path):
        topo = json.loads(TOPOLOGY.read_text())
        topo["gateways"].append({"id": "gw-bad", "kind": "vpn",
                                 "admits_to": "moonbase", "mode": "vpn"})
        path = write_json(tmp_path, "topo.json", topo)
        with pytest.raises(DanglingReference) as err:
            build_broker(path, DIRECTORY)
        assert "gw-bad" in str(err.value)
        assert "topo.json" in str(err.value)

    def test_research_subnet_without_parent(self, tmp_path):
        topo = json.loads(TOPOLOGY.read_text())
        for zone in topo["zones"]:
            if zone["id"] == "research-subnet":
                zone.pop("parent")
        path = write_json(tmp_path, "topo.json", topo)
        with pytest.raises(SchemaError):
            build_broker(path, DIRECTORY)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"zones": [\n  {"id": }\n]}', encoding="utf-8")
        with pytest.raises(ParseError) as err:
            build_broker(path, DIRECTORY)
        assert "broken.json:2" in str(err.value)

    def test_group_member_not_in_directory(self, tmp_path):
        directory = json.loads(DIRECTORY.read_text())
        directory["groups"][0]["members"].append("ghost")
        path = write_json(tmp_path, "dir.json", directory)
        with pytest.raises(DanglingReference):
            build_broker(TOPOLOGY, path)

    @pytest.mark.parametrize("field", ["seed", "clock"])
    @pytest.mark.parametrize("value", ["x", [2], True, 1.7, {}])
    def test_scenario_seed_or_clock_not_an_integer(self, tmp_path, field, value):
        path = write_json(tmp_path, "scenario.json", {field: value, "steps": []})
        with pytest.raises(SchemaError) as err:
            load_scenario(path)
        assert f"argument {field!r} must be an integer" in str(err.value)
        assert "scenario.json" in str(err.value)

    def test_scenario_seed_and_clock_null_or_absent_default_to_zero(self, tmp_path):
        for payload in ({"steps": []}, {"seed": None, "clock": None, "steps": []}):
            scenario = load_scenario(write_json(tmp_path, "scenario.json", payload))
            assert (scenario.seed, scenario.clock) == (0, 0)
        scenario = load_scenario(write_json(tmp_path, "scenario.json",
                                            {"seed": 7, "clock": 30, "steps": []}))
        assert (scenario.seed, scenario.clock) == (7, 30)


# Two steps that match, one of them by the error it expected, before the
# step under test.
PRELUDE = [
    {"op": "verify_mfa", "args": {"netid": "res1", "proof": "wrong"},
     "expect": {"error": "mfa-failed"}},
    {"op": "verify_mfa", "args": {"netid": "res1", "proof": "mfa-res1"}},
]
MATCHED = [StepResult(0, "verify_mfa", True, "expected error mfa-failed"),
           StepResult(1, "verify_mfa", True, "")]


def _alive_step_results() -> int:
    gc.collect()
    return sum(isinstance(obj, StepResult) for obj in gc.get_objects())


class TestRunScenario:
    def test_reference_scenario_exits_zero(self):
        broker = build_broker(TOPOLOGY, DIRECTORY, seed=42)
        outcome = run_scenario(broker, load_scenario(SCENARIO))
        assert outcome.exit_code == 0
        assert outcome.mismatches == []

    def test_expecting_allow_where_table_says_deny(self):
        scenario = load_scenario(SCENARIO)
        for step in scenario.steps:
            if step["op"] == "attempt_clipboard":
                step["expect"] = {"verdict": "allow"}
        broker = build_broker(TOPOLOGY, DIRECTORY, seed=42)
        outcome = run_scenario(broker, scenario)
        assert outcome.exit_code == 1
        assert "verdict" in outcome.mismatches[0].detail

    def test_malformed_step_verb(self):
        broker = build_broker(TOPOLOGY, DIRECTORY)
        outcome = run_scenario(broker, Scenario(0, 0, [{"op": "frobnicate"}]))
        assert outcome.exit_code == 2

    def test_step_whose_op_is_not_a_string_exits_two(self):
        broker = build_broker(TOPOLOGY, DIRECTORY)
        outcome = run_scenario(broker, Scenario(0, 0, [{"op": ["advance"]}]))
        assert outcome.exit_code == 2

    def test_expected_error_passes(self):
        broker = build_broker(TOPOLOGY, DIRECTORY)
        scenario = Scenario(0, 0, [
            {"op": "verify_mfa", "args": {"netid": "res1", "proof": "wrong"},
             "expect": {"error": "mfa-failed"}},
        ])
        assert run_scenario(broker, scenario).exit_code == 0

    def test_unexpected_denial_is_mismatch(self):
        broker = build_broker(TOPOLOGY, DIRECTORY)
        scenario = Scenario(0, 0, [
            {"op": "verify_mfa", "args": {"netid": "res1", "proof": "wrong"}},
        ])
        assert run_scenario(broker, scenario).exit_code == 1

    @pytest.mark.parametrize("args", [
        {"actor": "stw1", "project": "opm-study", "netid": "res1"},
        {"actor": "stw1", "project": "opm-study", "netid": "res1", "mode": "ssh"},
        ["stw1", "opm-study", "res1", "rdp"],
    ])
    def test_step_with_bad_arguments_exits_two(self, args):
        broker = build_broker(TOPOLOGY, DIRECTORY)
        outcome = run_scenario(broker, Scenario(0, 0, [{"op": "grant_access",
                                                        "args": args}]))
        assert outcome.exit_code == 2
        assert "bad-request" in outcome.mismatches[0].detail

    def test_expected_bad_request_passes(self):
        broker = build_broker(TOPOLOGY, DIRECTORY)
        scenario = Scenario(0, 0, [{"op": "advance", "args": {"seconds": -5},
                                    "expect": {"error": "bad-request"}}])
        assert run_scenario(broker, scenario).exit_code == 0

    @pytest.mark.parametrize("step, exit_code, tail", [
        ({"op": "verify_chain", "expect": {"ok": True}}, 0,
         [StepResult(2, "verify_chain", True, ""), StepResult(3, "verify_chain", True, "")]),
        ({"op": "verify_chain", "expect": {"ok": False}}, 1,
         [StepResult(2, "verify_chain", False, "expected ok=False, got True")]),
        ({"op": "verify_mfa", "args": {"netid": "res1", "proof": "wrong"}}, 1,
         [StepResult(2, "verify_mfa", False, "unexpected mfa-failed: res1")]),
        ({"op": "verify_chain", "expect": {"error": "mfa-failed"}}, 1,
         [StepResult(2, "verify_chain", False, "expected error 'mfa-failed', got success "
                     "{'ok': True, 'first_bad_seq': None}")]),
        ({"op": "frobnicate"}, 2, [StepResult(2, "frobnicate", False, "unknown op 'frobnicate'")]),
        ({"op": "grant_access", "args": {"actor": "stw1"}}, 2,
         [StepResult(2, "grant_access", False,
                     "unexpected bad-request: grant_access: missing argument 'project'")]),
        ({"op": "verify_chain", "expect": [1]}, 2,
         [StepResult(2, "verify_chain", False, "invalid expect [1]: must be an object")]),
        ({"op": "verify_mfa", "args": {"netid": "res1", "proof": "wrong"}, "expect": "x"}, 2,
         [StepResult(2, "verify_mfa", False, "invalid expect 'x': must be an object")]),
    ])
    def test_each_exit_path_reports_every_step_run(self, step, exit_code, tail):
        broker = build_broker(TOPOLOGY, DIRECTORY)
        outcome = run_scenario(broker, Scenario(0, 0, PRELUDE + [step, {"op": "verify_chain"}]))
        assert outcome.exit_code == exit_code
        assert outcome.results == MATCHED + tail
        assert outcome.mismatches == [r for r in tail if not r.ok]

    def test_internal_error_exits_three_with_the_steps_before_it(self, monkeypatch):
        broker = build_broker(TOPOLOGY, DIRECTORY)
        op = broker.op

        def faulty(name, args=None):
            if name == "verify_chain":
                raise RuntimeError("boom")
            return op(name, args)

        monkeypatch.setattr(broker, "op", faulty)
        outcome = run_scenario(broker, Scenario(0, 0, PRELUDE + [{"op": "verify_chain"}]))
        last = StepResult(2, "verify_chain", False, "internal error: RuntimeError('boom')")
        assert outcome.exit_code == 3
        assert outcome.results == MATCHED + [last]
        assert outcome.mismatches == [last]

    def test_a_run_keeps_no_result_per_step(self):
        steps = [{"op": "advance", "args": {"seconds": 1}} for _ in range(600)]
        before = _alive_step_results()
        outcome = run_scenario(build_broker(TOPOLOGY, DIRECTORY), Scenario(0, 0, steps))
        assert _alive_step_results() == before
        assert outcome.exit_code == 0
        failed = run_scenario(build_broker(TOPOLOGY, DIRECTORY),
                              Scenario(0, 0, steps + [{"op": "frobnicate"}]))
        assert _alive_step_results() == before + 1
        assert failed.exit_code == 2
        # The per-step view is still there, built when it is asked for.
        assert outcome.results == [StepResult(i, "advance", True) for i in range(600)]
        assert failed.results[600:] == failed.mismatches

    def test_determinism_byte_identical_ledgers(self):
        scenario = load_scenario(SCENARIO)
        runs = []
        for _ in range(2):
            broker = build_broker(TOPOLOGY, DIRECTORY, seed=scenario.seed,
                                  start_time=scenario.clock)
            outcome = run_scenario(broker, scenario)
            runs.append(outcome.ledger_text)
        assert runs[0] == runs[1]
        assert runs[0]  # non-empty


class TestCliEntry:
    def test_init_verb(self, capsys):
        code = main(["init", "--topology", str(TOPOLOGY),
                     "--directory", str(DIRECTORY)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "ready"

    def test_init_missing_file(self, capsys):
        code = main(["init", "--topology", "/nonexistent.json",
                     "--directory", str(DIRECTORY)])
        assert code == 2

    def test_run_verb_writes_ledger(self, tmp_path, capsys):
        out = tmp_path / "ledger.jsonl"
        code = main(["run", "--topology", str(TOPOLOGY),
                     "--directory", str(DIRECTORY),
                     "--scenario", str(SCENARIO),
                     "--ledger-out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines
        assert json.loads(lines[0])["seq"] == 1

    def test_run_renders_the_export_only_for_ledger_out(self, tmp_path, capsys,
                                                        monkeypatch):
        rendered = []
        export_text = AuditLedger.export_text

        def counted(ledger):
            rendered.append(1)
            return export_text(ledger)

        monkeypatch.setattr(AuditLedger, "export_text", counted)
        argv = ["run", "--topology", str(TOPOLOGY), "--directory", str(DIRECTORY),
                "--scenario", str(SCENARIO)]
        assert main(argv) == 0
        assert rendered == []
        assert main(argv + ["--ledger-out", str(tmp_path / "ledger.jsonl")]) == 0
        assert rendered == [1]

    def test_run_step_missing_an_argument_exits_two(self, tmp_path, capsys):
        scenario = json.loads(SCENARIO.read_text())
        del scenario["steps"][1]["args"]["netid"]
        path = write_json(tmp_path, "missing.json", scenario)
        code = main(["run", "--topology", str(TOPOLOGY),
                     "--directory", str(DIRECTORY), "--scenario", str(path)])
        assert code == 2
        assert "grant_access: missing argument 'netid'" in capsys.readouterr().err

    @pytest.mark.parametrize("step", [
        {"op": "verify_chain", "args": {}, "expect": [1]},
        {"op": "verify_mfa", "args": {"netid": "res1", "proof": "wrong"}, "expect": "x"},
    ])
    def test_run_step_whose_expect_is_not_an_object_exits_two(self, tmp_path, capsys, step):
        path = write_json(tmp_path, "expect.json", {"steps": [step]})
        code = main(["run", "--topology", str(TOPOLOGY),
                     "--directory", str(DIRECTORY), "--scenario", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert f"step 0 ({step['op']}): invalid expect" in captured.err
        assert json.loads(captured.out)["steps"] == 1

    @pytest.mark.parametrize("payload", [{"seed": "x"}, {"seed": 1, "clock": [2]},
                                         {"seed": True}, {"clock": 1.7}])
    def test_run_scenario_with_a_bad_seed_or_clock_exits_two(self, tmp_path, capsys,
                                                              payload):
        path = write_json(tmp_path, "scenario.json", {**payload, "steps": []})
        code = main(["run", "--topology", str(TOPOLOGY),
                     "--directory", str(DIRECTORY), "--scenario", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be an integer" in err
        assert "Traceback" not in err

    def test_env_vars_mirror_flags(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BROKER_TOPOLOGY", str(TOPOLOGY))
        monkeypatch.setenv("BROKER_DIRECTORY", str(DIRECTORY))
        assert main(["init"]) == 0

    def test_run_mismatch_exits_one(self, tmp_path, capsys):
        scenario = json.loads(SCENARIO.read_text())
        scenario["steps"][4]["expect"] = {"verdict": "allow"}
        path = write_json(tmp_path, "bad.json", scenario)
        code = main(["run", "--topology", str(TOPOLOGY),
                     "--directory", str(DIRECTORY), "--scenario", str(path)])
        assert code == 1

    def test_determinism_across_processes(self, tmp_path):
        """Fresh interpreters with the same inputs emit identical ledgers."""
        import subprocess
        import sys
        outputs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "enclavebroker.cli", "run",
                 "--topology", str(TOPOLOGY), "--directory", str(DIRECTORY),
                 "--scenario", str(SCENARIO), "--ledger-out", str(out)],
                capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_serve_announces_its_port_on_a_pipe(self):
        """With stdout on a pipe, the listening line arrives while the server
        runs, so a supervisor that asked for port 0 learns the port."""
        import os
        import select
        import subprocess
        import sys
        # Block-buffered stdout, as a supervisor that sets nothing gets it.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "enclavebroker.cli", "serve",
             "--topology", str(TOPOLOGY), "--directory", str(DIRECTORY),
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 10)
            assert ready, "no listening line within 10 s"
            host, port = json.loads(proc.stdout.readline())["listening"].rsplit(":", 1)
            response = request((host, int(port)), "verify_mfa",
                               {"netid": "res1", "proof": "mfa-res1"})
            assert response["ok"]
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


class TestWireService:
    @pytest.fixture
    def server(self):
        broker = build_broker(TOPOLOGY, DIRECTORY, seed=1)
        server = BrokerServer(broker, ("127.0.0.1", 0))
        server.serve_in_thread()
        yield server
        server.shutdown()
        server.server_close()

    def test_request_response_echoes_id(self, server):
        response = request(server.address, "verify_mfa",
                           {"netid": "res1", "proof": "mfa-res1"}, request_id=7)
        assert response == {"id": 7, "ok": True,
                            "result": {"netid": "res1", "method": "local",
                                       "mfa_passed": True}}

    def test_check_access_over_wire(self, server):
        request(server.address, "register_project",
                {"actor": "admin1", "id": "p1", "classification": "public",
                 "stewards": ["stw1"]})
        request(server.address, "verify_mfa", {"netid": "res1", "proof": "mfa-res1"})
        response = request(server.address, "check_access",
                           {"netid": "res1", "project": "p1", "mode": "rdp"})
        assert response["ok"]
        assert response["result"]["verdict"] == "allow"

    def test_malformed_message(self, server):
        broker = server.broker
        response = handle_request_line(broker, "this is not json")
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"

    def test_error_response_carries_code(self, server):
        response = request(server.address, "verify_mfa",
                           {"netid": "res1", "proof": "wrong"})
        assert response["ok"] is False
        assert response["error"]["code"] == "mfa-failed"

    @pytest.mark.parametrize("op,args", [
        ("grant_access", {}),
        ("advance", {"seconds": -5}),
        ("advance", {"seconds": "x"}),
        ("register_user", {"netid": "m1", "affiliation": "martian"}),
        ("verify_mfa", ["res1"]),
        (["verify_chain"], {}),             # an op name that is not a string
        ({"name": "verify_chain"}, {}),
    ])
    def test_bad_arguments_get_bad_request(self, server, op, args):
        line = json.dumps({"id": 4, "op": op, "args": args})
        response = handle_request_line(server.broker, line)
        assert response["id"] == 4
        assert response["error"]["code"] == "bad-request"

    def test_over_long_request_line_is_answered_and_closed(self, server):
        padding = "x" * MAX_REQUEST_BYTES
        line = json.dumps({"id": 1, "op": "verify_chain", "args": {"pad": padding}})
        with socket.create_connection(server.address, timeout=10) as conn:
            conn.sendall(line.encode("utf-8") + b"\n")
            reader = conn.makefile("rb")
            response = json.loads(reader.readline())
            assert response["ok"] is False
            assert response["error"]["code"] == "bad-request"
            assert reader.readline() == b""  # the server closed the connection
            reader.close()
        assert request(server.address, "verify_chain", {})["ok"]

    def test_longest_request_line_is_served(self, server):
        line = json.dumps({"id": 2, "op": "verify_chain", "args": {"pad": ""}})
        line = line.replace('"pad": ""', '"pad": "' + "x" * (MAX_REQUEST_BYTES - len(line) - 1)
                            + '"')
        assert len(line) + 1 == MAX_REQUEST_BYTES
        with socket.create_connection(server.address, timeout=10) as conn:
            conn.sendall(line.encode("utf-8") + b"\n")
            with conn.makefile("rb") as reader:
                assert json.loads(reader.readline())["ok"] is True

    def test_request_line_that_is_not_utf8_is_answered(self, server):
        with socket.create_connection(server.address, timeout=10) as conn:
            conn.sendall(b'{"op":"verify_chain","args":{"x":"\xff"}}\n')
            conn.sendall(b'{"id":3,"op":"verify_chain","args":{}}\n')
            with conn.makefile("rb") as reader:
                assert json.loads(reader.readline())["error"]["code"] == "bad-request"
                assert json.loads(reader.readline())["ok"] is True

    def test_unknown_op(self, server):
        response = request(server.address, "frobnicate", {})
        assert response["error"]["code"] == "unknown-op"

    @pytest.mark.parametrize("line, request_id", [("[]", None), ('"verify_chain"', None),
                                                  ('{"id": 7}', 7)])
    def test_request_that_is_not_an_object_with_an_op(self, line, request_id):
        broker = build_broker(TOPOLOGY, DIRECTORY, seed=1)
        before = len(broker.ledger)
        assert handle_request_line(broker, line) == {
            "id": request_id, "ok": False,
            "error": {"code": "bad-request",
                      "message": "request must be an object with an 'op' field"}}
        assert len(broker.ledger) == before

    def test_fault_in_the_broker_is_an_internal_error(self, monkeypatch):
        broker = build_broker(TOPOLOGY, DIRECTORY, seed=1)

        def fault():
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(broker.ledger, "verify_chain", fault)
        line = json.dumps({"id": 9, "op": "verify_chain", "args": {}})
        assert handle_request_line(broker, line) == {
            "id": 9, "ok": False,
            "error": {"code": "internal-error",
                      "message": "ZeroDivisionError('division by zero')"}}
        monkeypatch.undo()
        line = json.dumps({"id": 10, "op": "verify_chain", "args": {}})
        assert handle_request_line(broker, line)["ok"] is True

    def test_concurrent_clients_linearize(self, server):
        """Two read-heavy request logs executed concurrently must match a
        sequential execution of the same logs (the ops are read-only, so the
        sequential answers are unique)."""
        request(server.address, "register_project",
                {"actor": "admin1", "id": "p2", "classification": "public",
                 "stewards": ["stw1"]})
        request(server.address, "verify_mfa", {"netid": "res1", "proof": "mfa-res1"})
        request(server.address, "verify_mfa", {"netid": "res2", "proof": "mfa-res2"})

        logs = {
            "a": [("check_access", {"netid": "res1", "project": "p2", "mode": "rdp"})] * 20,
            "b": [("authorize_mode", {"netid": "res2", "project": "p2"})] * 20,
        }
        sequential = {
            name: [request(server.address, op, args)["result"] for op, args in ops]
            for name, ops in logs.items()
        }
        concurrent: dict[str, list] = {"a": [], "b": []}

        def client(name):
            for op, args in logs[name]:
                concurrent[name].append(request(server.address, op, args)["result"])

        threads = [threading.Thread(target=client, args=(n,)) for n in logs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert concurrent == sequential

    def test_every_wire_op_maps_to_one_module_operation(self, server):
        ops = set(OPS)
        # Spot-check the contract: session opening exists exactly once and
        # no op name suggests a policy bypass.
        assert "open_session" in ops
        assert not any("bypass" in name or "raw" in name for name in ops)

    def test_concurrent_writers_serialize(self):
        """Mutating ops from many threads funnel through one writer: the
        resulting chain must be gapless and verifiable."""
        broker = build_broker(TOPOLOGY, DIRECTORY, seed=3)

        def register(prefix):
            for i in range(25):
                broker.op("register_user", {"netid": f"{prefix}{i:03d}",
                                            "affiliation": "member"})

        threads = [threading.Thread(target=register, args=(p,))
                   for p in ("tx", "ty", "tz")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert broker.ledger.verify_chain() == (True, None)
        seqs = [e.seq for e in broker.ledger.events]
        assert seqs == list(range(1, len(seqs) + 1))
        assert sum(1 for e in broker.ledger.events if e.action == "register") >= 75


# Each client command line and the (op, args) it sends. The first eleven are
# the README's examples.
CLIENT_COMMANDS = [
    ("project opm-study --classification sensitive --stewards stw1 --zone research-subnet"
     " --actor admin1",
     "register_project", {"actor": "admin1", "id": "opm-study", "classification": "sensitive",
                          "stewards": ["stw1"], "zone": "research-subnet"}),
    ("grant opm-study res1 rdp --actor stw1",
     "grant_access", {"actor": "stw1", "project": "opm-study", "netid": "res1",
                      "mode": "rdp"}),
    ("user mfa res1 --proof mfa-res1", "verify_mfa", {"netid": "res1", "proof": "mfa-res1"}),
    ("session open --netid res1 --project opm-study --mode rdp",
     "open_session", {"netid": "res1", "project": "opm-study", "mode": "rdp",
                      "endpoint_managed": False}),
    ("egress clipboard s-000001 --direction out",
     "attempt_clipboard", {"session": "s-000001", "direction": "out"}),
    ("export submit --session s-000001 --payload results.tar",
     "submit_export", {"session": "s-000001", "payload": "results.tar"}),
    ("export adjudicate --request req-0001 --broker broker1 --verdict approved"
     " --rationale ok",
     "adjudicate_export", {"broker": "broker1", "request": "req-0001",
                           "verdict": "approved", "rationale": "ok"}),
    ("image submit --project opm-study --payload layers:v1 --builder res1",
     "submit_image", {"builder": "res1", "project": "opm-study", "payload": "layers:v1",
                      "source": "campus"}),
    ("audit trace --session s-000001", "reconstruct_session", {"session": "s-000001"}),
    ("audit verify", "verify_chain", {}),
    ("audit report --project opm-study --start 0 --end 86400",
     "compliance_report", {"project": "opm-study", "start": 0, "end": 86400}),
    ("user add aff9 --affiliation affiliate --sponsor stw1",
     "register_user", {"netid": "aff9", "affiliation": "affiliate", "sponsor": "stw1",
                       "actor": "broker"}),
    ("user deactivate res3 --actor admin1", "deactivate_user",
     {"actor": "admin1", "netid": "res3"}),
    ("group create reviewers --actor admin1", "create_group",
     {"name": "reviewers", "kind": "role", "actor": "admin1"}),
    ("group add analysts --netid res1 --actor admin1", "set_membership",
     {"actor": "admin1", "group": "analysts", "netid": "res1", "action": "add"}),
    ("group remove analysts --netid res1 --actor admin1", "set_membership",
     {"actor": "admin1", "group": "analysts", "netid": "res1", "action": "remove"}),
    ("revoke opm-study res1 vpn --actor stw1", "revoke_access",
     {"actor": "stw1", "project": "opm-study", "netid": "res1", "mode": "vpn"}),
    ("vm provision --project opm-study --dedicated", "provision_vm",
     {"project": "opm-study", "zone": "protected-vrf", "cpu": 4, "ram": 16,
      "dedicated": True}),
    ("vm resize --vm vm-0001 --cpu 8", "resize_vm", {"vm": "vm-0001", "cpu": 8, "ram": 16}),
    ("vm destroy --vm vm-0001", "destroy_vm", {"vm": "vm-0001"}),
    ("vm read-disk --vm vm-0001", "read_disk", {"vm": "vm-0001"}),
    ("share create --project opm-study --capacity-tb 2", "create_share",
     {"project": "opm-study", "protocol": "cifs", "capacity_tb": 2.0,
      "dedicated_device": False}),
    ("share acl --share share-0001 --groups a,b --actor stw1", "set_share_acl",
     {"actor": "stw1", "share": "share-0001", "groups": ["a", "b"]}),
    ("session resume --netid res1 --project opm-study --mode vpn --managed",
     "resume_session", {"netid": "res1", "project": "opm-study", "mode": "vpn",
                        "endpoint_managed": True}),
    ("session close --session s-000001", "close_session", {"session": "s-000001"}),
    ("egress file s-000001 --object extract.csv", "attempt_file_egress",
     {"session": "s-000001", "object": "extract.csv"}),
    ("image vet --image img-0001 --vetter vetter1 --report clean", "vet_image",
     {"vetter": "vetter1", "image": "img-0001", "report": "clean"}),
    ("image approve --image img-0001 --approver stw1", "approve_image",
     {"approver": "stw1", "image": "img-0001"}),
    ("image deploy --image img-0001 --operator admin1 --project opm-study --digest d1",
     "deploy_image", {"operator": "admin1", "image": "img-0001", "project": "opm-study",
                      "digest": "d1"}),
    ("audit resolve --arbitrary-user u-1", "resolve_identity", {"arbitrary_user": "u-1"}),
    ("audit resolve --arbitrary-user u-1 --at 5", "resolve_identity",
     {"arbitrary_user": "u-1", "at": 5}),
    ("audit report --project opm-study", "compliance_report",
     {"project": "opm-study", "start": 0}),
]


class TestClientVerbs:
    @pytest.mark.parametrize("command,op,payload", CLIENT_COMMANDS)
    def test_command_line_maps_to_one_op(self, command, op, payload):
        args = build_parser().parse_args(command.split())
        assert _client_payload(args) == (op, payload)

    @pytest.mark.parametrize("command,option", [
        ("vm provision", "--project"),
        ("vm resize", "--vm"),
        ("session open --project p", "--netid"),
        ("export adjudicate --request r --verdict approved --rationale ok", "--broker"),
        ("image vet --image img-0001", "--vetter"),
        ("audit resolve", "--arbitrary-user"),
        ("group add analysts --actor admin1", "--netid"),
    ])
    def test_missing_option_exits_two_before_connecting(self, capsys, command, option):
        assert main(command.split() + ["--connect", "127.0.0.1:1"]) == 2
        assert option in capsys.readouterr().err

    @pytest.fixture
    def served(self):
        server = BrokerServer(build_broker(TOPOLOGY, DIRECTORY, seed=1), ("127.0.0.1", 0))
        server.serve_in_thread()
        host, port = server.address
        yield f"{host}:{port}"
        server.shutdown()
        server.server_close()

    @pytest.mark.parametrize("command,code,ok", [
        ("audit verify", 0, True),
        ("user mfa res1 --proof wrong", 1, False),
    ])
    def test_exit_code_follows_the_response(self, capsys, served, command, code, ok):
        assert main(command.split() + ["--connect", served]) == code
        captured = capsys.readouterr()
        assert json.loads(captured.out)["ok"] is ok
        assert captured.err == ""

    def test_nothing_listening_exits_three(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            host, port = probe.getsockname()
        assert main(["audit", "verify", "--connect", f"{host}:{port}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_audit_resolve_without_at_asks_about_now(self, capsys):
        broker = build_broker(TOPOLOGY, DIRECTORY, seed=1)
        broker.op("register_project", {"actor": "admin1", "id": "p1",
                                       "classification": "sensitive",
                                       "stewards": ["stw1"], "zone": "research-subnet"})
        broker.op("grant_access", {"actor": "stw1", "project": "p1", "netid": "res1",
                                   "mode": "rdp"})
        broker.op("verify_mfa", {"netid": "res1", "proof": "mfa-res1"})
        session = broker.op("open_session", {"netid": "res1", "project": "p1",
                                             "mode": "rdp"})
        user = broker.sessions.session(session["session_id"]).arbitrary_user
        server = BrokerServer(broker, ("127.0.0.1", 0))
        server.serve_in_thread()
        try:
            host, port = server.address
            code = main(["audit", "resolve", "--arbitrary-user", user,
                         "--connect", f"{host}:{port}"])
        finally:
            server.shutdown()
            server.server_close()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["result"] == {
            "arbitrary_user": user, "netid": "res1"}
