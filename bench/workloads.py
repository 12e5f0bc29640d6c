"""The three workloads: replay, audit and wire.

Each workload writes its inputs once per run from the seed, then runs
rounds. A round is one fixed, seeded sequence of operations against a fresh
broker, so every round does the same work whatever the commit's speed;
broker state grows with every session opened, so a fixed-duration round
would not. The first round's outputs are checked in full against
`checks`; every later round must reproduce them exactly (same digest).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import random
import select
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

DAY = 86400
# Shared hosts with room for 3,584 project VMs (14 hosts x 256). That is more
# than any scenario below ever provisions, reclaimed or not, so no step can
# fail for capacity; loadgen's default hosts hold only 448.
HOSTS = {"hosts": 16, "host_cpu": 1024, "host_ram": 4096}
REPLAY_SESSIONS = 2000
AUDIT_SESSIONS = 2000
# Of each kind: reconstruct_session, resolve_identity. With this many cheap
# lookups the 1 % slowest operations are about the slower 40 % of reports, so
# op_us_p99 reads near the reports' median rather than their noisy tail.
AUDIT_LOOKUPS = 5000
AUDIT_VERIFIES = 3
AUDIT_VISITS = 60
AUDIT_RECENT = 7 * DAY        # the recent report window
WIRE_VISITS = 3000
# One visit in ten opens a session, so open_session is about 3 % of the
# requests and op_us_p99 reads inside its body rather than its tail.
WIRE_SESSION_SHARE = 0.1
STARTUP_TIMEOUT_S = 60

# Replay and audit run in this process and never block, so they are timed on
# the thread's CPU clock. That clock leaves out the time the hypervisor takes
# the vCPU away (steal): on a shared 2-vCPU VM, steal moved a fixed loop's
# wall time between 1.25 and 2.09 s across runs while its CPU time stayed
# within 1.13-1.36 s. Wire spans two processes and a socket, so it is timed
# on the wall clock.
cpu_ns = time.thread_time_ns
cpu_s = time.thread_time


@dataclass
class Round:
    setup_s: float
    timed_s: float
    latencies_ns: list[int]
    failed: int
    digest: str
    peak_rss_mb: float                 # of the process that holds the broker
    spans: list = field(default_factory=list)  # server-side spans, traced wire
    wire_timing: dict | None = None    # client-side per-request figures, traced wire


def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set of a process (VmHWM), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@contextlib.contextmanager
def untraced(tracer):
    """Keep program calls made for the checks out of the trace."""
    if tracer is None:
        yield
        return
    tracer.recording = False
    try:
        yield
    finally:
        tracer.recording = True


def _grants(scenario: dict) -> list[tuple[str, str, str]]:
    return [(s["args"]["netid"], s["args"]["project"], s["args"]["mode"])
            for s in scenario["steps"] if s["op"] == "grant_access"]


class Workload:
    name = ""
    cpu_clock = True   # timed on cpu_ns/cpu_s; False: on the wall clock

    def __init__(self, seed: int, workdir: Path, tracer=None):
        from enclavebroker import loadgen
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.topology = _write_json(workdir / "topology.json", loadgen.build_topology(**HOSTS))
        self.directory_data = loadgen.build_directory()
        self.directory = _write_json(workdir / "directory.json", self.directory_data)
        self.first: dict | None = None   # outputs of the round kept for check()

    def run_round(self, keep: bool) -> Round:
        """One round; `keep` keeps its outputs for check()."""
        gc.collect()
        return self.round(keep)

    def round(self, keep: bool) -> Round:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError


def _replay_broker(topology: Path, directory: Path, scenario_path: Path):
    from enclavebroker import configio
    scenario = configio.load_scenario(scenario_path)
    broker = configio.build_broker(topology, directory, seed=scenario.seed,
                                   start_time=scenario.clock)
    return scenario, broker


class Replay(Workload):
    """`enclave-broker run`: load_scenario + build_broker, then run_scenario."""

    name = "replay"

    def __init__(self, seed, workdir, tracer=None, sessions=REPLAY_SESSIONS):
        super().__init__(seed, workdir, tracer)
        from enclavebroker import loadgen
        self.scenario = loadgen.build_scenario(seed=seed, sessions_target=sessions)
        self.scenario_path = _write_json(workdir / "scenario.json", self.scenario)

    def round(self, keep: bool) -> Round:
        from enclavebroker import configio
        start = cpu_s()
        scenario, broker = _replay_broker(self.topology, self.directory, self.scenario_path)
        setup_s = cpu_s() - start

        latencies: list[int] = []
        untimed_op = broker.op

        def op(name, args=None):
            t0 = cpu_ns()
            try:
                return untimed_op(name, args)
            finally:
                latencies.append(cpu_ns() - t0)

        broker.op = op
        start = cpu_s()
        outcome = configio.run_scenario(broker, scenario)
        timed_s = cpu_s() - start
        rss = peak_rss_mb()
        broker.op = untimed_op

        step_ok = [r.ok for r in outcome.results]
        digest = hashlib.sha256(outcome.ledger_text.encode("utf-8")).hexdigest()
        if keep:
            end = checks.final_clock(self.scenario)
            reports = {}
            with untraced(self.tracer):
                for s in self.scenario["steps"]:
                    if s["op"] == "register_project":
                        project = s["args"]["id"]
                        reports[project] = broker.op("compliance_report", {
                            "project": project, "start": 0, "end": end})
            self.first = {"step_ok": step_ok, "export": outcome.ledger_text,
                          "reports": reports}
        return Round(setup_s, timed_s, latencies, step_ok.count(False), digest, rss)

    def check(self) -> list[str]:
        return checks.check_replay(self.scenario, self.first["step_ok"],
                                   self.first["export"], self.first["reports"])


OPENED = "<session opened by this visit>"


def _visit_ops(netid: str, project: str, mode: str, tag: str) -> list[tuple[str, dict]]:
    return [
        ("verify_mfa", {"netid": netid, "proof": f"mfa-{netid}"}),
        ("open_session", {"netid": netid, "project": project, "mode": mode,
                          "endpoint_managed": mode == "vpn"}),
        ("attempt_clipboard", {"session": OPENED, "direction": "out"}),
        ("attempt_file_egress", {"session": OPENED, "object": f"{tag}.csv"}),
        ("close_session", {"session": OPENED}),
    ]


class Audit(Workload):
    """Reads through Broker.op over a replayed history, with a few visits
    interleaved so that the ledger grows between reads."""

    name = "audit"

    def __init__(self, seed, workdir, tracer=None, sessions=AUDIT_SESSIONS,
                 lookups=AUDIT_LOOKUPS, verifies=AUDIT_VERIFIES, visits=AUDIT_VISITS):
        super().__init__(seed, workdir, tracer)
        from enclavebroker import loadgen
        self.history = loadgen.build_scenario(seed=seed, sessions_target=sessions)
        self.history_path = _write_json(workdir / "history.json", self.history)
        self.sizes = (lookups, verifies, visits)
        self.plan: list[tuple[str, dict]] | None = None

    def _make_plan(self, export_text: str) -> list[tuple[str, dict]]:
        """The timed sequence, from the seed and the history's map events."""
        lookups, verifies, visits = self.sizes
        rng = random.Random(f"audit-{self.seed}")
        maps = [json.loads(line) for line in export_text.splitlines()
                if '"action":"map"' in line]
        end = checks.final_clock(self.history)
        projects = [s["args"]["id"] for s in self.history["steps"]
                    if s["op"] == "register_project"]
        blocks = []
        for project in projects:
            for start in (0, end - AUDIT_RECENT):
                blocks.append([("compliance_report",
                                {"project": project, "start": start, "end": end})])
        for _ in range(lookups):
            m = rng.choice(maps)
            blocks.append([("reconstruct_session", {"session": m["object"]})])
            m = rng.choice(maps)
            blocks.append([("resolve_identity", {"arbitrary_user": m["detail"]["arbitrary_user"],
                                                  "at": m["at"]})])
        blocks += [[("verify_chain", {})] for _ in range(verifies)]
        grants = _grants(self.history)
        for i in range(visits):
            netid, project, mode = rng.choice(grants)
            blocks.append(_visit_ops(netid, project, mode, f"audit-{i}"))
        rng.shuffle(blocks)
        return [op for block in blocks for op in block]

    def round(self, keep: bool) -> Round:
        from enclavebroker import configio
        start = cpu_s()
        history, broker = _replay_broker(self.topology, self.directory, self.history_path)
        outcome = configio.run_scenario(broker, history)
        setup_s = cpu_s() - start
        if outcome.exit_code != 0:
            raise RuntimeError(f"audit history stopped: {outcome.mismatches[:1]}")
        if self.plan is None:
            self.plan = self._make_plan(outcome.ledger_text)

        latencies, records, failed = [], [], 0
        session = None
        ledger = broker.ledger
        start = cpu_s()
        for op, args in self.plan:
            if args.get("session") == OPENED:
                args = {**args, "session": session}
            upto = len(ledger)
            t0 = cpu_ns()
            try:
                response = broker.op(op, args)
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                response = None
            latencies.append(cpu_ns() - t0)
            if response is None:
                failed += 1
            elif op == "open_session":
                session = response["session_id"]
            elif op == "reconstruct_session":
                # Keep a digest, not 5,000 traces: peak_rss_mb is the broker's.
                response = {"session": response["session"],
                            "events_sha256": checks.events_digest(response["events"])}
            records.append((op, args, upto, response))
        timed_s = cpu_s() - start
        rss = peak_rss_mb()

        with untraced(self.tracer):
            export = ledger.export_text()
        digest = _digest([records, hashlib.sha256(export.encode("utf-8")).hexdigest()])
        if keep:
            self.first = {"records": records, "export": export}
        return Round(setup_s, timed_s, latencies, failed, digest, rss)

    def check(self) -> list[str]:
        return checks.check_audit(self.first["records"], self.first["export"])


class Wire(Workload):
    """One persistent NDJSON connection to a `serve` child, closed loop."""

    name = "wire"
    cpu_clock = False

    def __init__(self, seed, workdir, tracer=None, visits=WIRE_VISITS):
        super().__init__(seed, workdir, tracer)
        from enclavebroker import loadgen
        # Only the projects and grants are used; they precede all sessions.
        scenario = loadgen.build_scenario(seed=seed, sessions_target=0)
        self.bootstrap = [(s["op"], s["args"]) for s in scenario["steps"]
                          if s["op"] in ("register_project", "grant_access")]
        self.tiers = {s["args"]["id"]: s["args"]["classification"]
                      for s in scenario["steps"] if s["op"] == "register_project"}
        self.grants = set(_grants(scenario))
        self.plan = self._make_plan(sorted(self.grants), visits)
        self.round_index = 0

    def _make_plan(self, grants: list, visits: int) -> list[tuple[str, dict]]:
        """Half the visits are on a granted pair, and a fixed share of all
        visits open a session; the seed picks who, where and in which order."""
        rng = random.Random(f"wire-{self.seed}")
        netids = [u["netid"] for u in self.directory_data["users"]
                  if u["netid"] not in self.directory_data["admins"] and u["netid"] != "broker1"]
        projects = sorted(self.tiers)
        granted = visits // 2
        sessions = round(visits * WIRE_SESSION_SHARE)
        kinds = ["session"] * sessions + ["granted"] * (granted - sessions) \
            + ["any"] * (visits - granted)
        rng.shuffle(kinds)
        plan = []
        for i, kind in enumerate(kinds):
            if kind == "any":
                netid, project = rng.choice(netids), rng.choice(projects)
                mode = rng.choice(("vpn", "rdp"))
            else:
                netid, project, mode = rng.choice(grants)
            plan += [("verify_mfa", {"netid": netid, "proof": f"mfa-{netid}"}),
                     ("check_access", {"netid": netid, "project": project, "mode": mode}),
                     ("authorize_mode", {"netid": netid, "project": project})]
            if kind == "session":
                plan += _visit_ops(netid, project, mode, f"wire-{i}")[1:]
                plan.append(("reconstruct_session", {"session": OPENED}))
        return plan

    def _spawn(self, spans_path: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        if self.tracer is None:
            command = [sys.executable, "-u", "-m", "enclavebroker.cli", "serve",
                       "--topology", str(self.topology), "--directory", str(self.directory),
                       "--seed", str(self.seed), "--listen", "127.0.0.1:0"]
        else:
            command = [sys.executable, "-u", str(BENCH / "traced_serve.py"),
                       str(self.topology), str(self.directory), str(self.seed),
                       str(spans_path)]
        return subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stdin=subprocess.PIPE if self.tracer else subprocess.DEVNULL)

    @staticmethod
    def _port(proc) -> int:
        ready, _, _ = select.select([proc.stdout], [], [], STARTUP_TIMEOUT_S)
        line = proc.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError("serve printed no listening line")
        return int(json.loads(line)["listening"].rpartition(":")[2])

    def round(self, keep: bool) -> Round:
        self.round_index += 1
        spans_path = self.workdir / f"server-spans-{self.round_index}.json"
        start = time.perf_counter()
        proc = self._spawn(spans_path)
        sock = None
        try:
            sock = socket.create_connection(("127.0.0.1", self._port(proc)))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = sock.makefile("rb")
            exchanges, rtt_ns, sizes = [], [], []

            def send(op: str, args: dict) -> dict:
                request = {"id": len(exchanges), "op": op, "args": args}
                payload = (json.dumps(request) + "\n").encode("utf-8")
                t0 = time.perf_counter_ns()
                sock.sendall(payload)
                line = reader.readline()
                rtt_ns.append(time.perf_counter_ns() - t0)
                sizes.append(len(line))
                response = json.loads(line)
                exchanges.append((request, response))
                return response

            for op, args in self.bootstrap:
                send(op, args)
            setup_s = time.perf_counter() - start
            first_timed = len(exchanges)

            session, failed = None, 0
            start = time.perf_counter()
            for op, args in self.plan:
                if args.get("session") == OPENED:
                    args = {**args, "session": session}
                response = send(op, args)
                if not response.get("ok"):
                    failed += 1
                elif op == "open_session":
                    session = response["result"]["session_id"]
            timed_s = time.perf_counter() - start
            latencies = rtt_ns[first_timed:]

            rss = peak_rss_mb(proc.pid)
            export = send("export_ledger", {})
        finally:
            if sock is not None:
                sock.close()
            self._stop(proc)

        digest = _digest([[req, resp] for req, resp in exchanges])
        if keep:
            self.first = {"exchanges": exchanges[:-1], "export": export}
        result = Round(setup_s, timed_s, latencies, failed, digest, rss)
        if self.tracer is not None:
            result.spans = json.loads(spans_path.read_text(encoding="utf-8"))
            result.wire_timing = {"first": first_timed, "count": len(self.plan),
                                  "rtt_ns": rtt_ns, "sizes": sizes}
        return result

    def _stop(self, proc) -> None:
        try:
            if self.tracer is None:
                proc.terminate()
            else:
                proc.stdin.close()   # the traced server writes its spans and exits
            proc.wait(timeout=STARTUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        finally:
            proc.stdout.close()

    def check(self) -> list[str]:
        return checks.check_wire(self.tiers, self.grants, self.first["exchanges"],
                                 self.first["export"])


WORKLOADS = {w.name: w for w in (Replay, Audit, Wire)}
