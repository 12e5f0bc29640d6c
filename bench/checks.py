"""Correctness checks computed apart from the program.

Every check re-derives its answer from the generated inputs or from the
exported ledger lines: hashes by re-hashing the documented canonical form,
report counts by re-filtering raw events, identity by scanning map and
close events, verdicts from the classification and egress tables. None of
them calls the program's decision code. Each returns a list of problems,
empty when the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import re

GENESIS = "0" * 64
SESSION_ID = re.compile(r"s-\d+")
CLIENT_VIEW_KEYS = {"session_id", "vm_id", "gateway_path", "mode"}
EVENT_FIELDS = ("seq", "at", "actor", "action", "object", "detail")


def _first(problems: list[str], limit: int = 5) -> list[str]:
    if len(problems) > limit:
        return problems[:limit] + [f"... and {len(problems) - limit} more"]
    return problems


# -- tables ------------------------------------------------------------------------


def access_allowed(tier: str, in_mode_group: bool, in_role_group: bool = False) -> bool:
    """The three-tier classification table, enumerated directly."""
    if tier == "public":
        return True
    if tier == "restricted":
        return in_mode_group or in_role_group
    if tier == "sensitive":
        return in_mode_group
    raise ValueError(tier)


def clipboard_allowed(mode: str) -> bool:
    return mode != "rdp"


def file_egress_allowed(mode: str, endpoint_managed: bool) -> bool:
    return mode != "rdp" and endpoint_managed


# -- the exported ledger ----------------------------------------------------------


def parse_export(lines: list[str]) -> tuple[list[dict], list[str]]:
    events, problems = [], []
    for i, line in enumerate(lines, 1):
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            problems.append(f"export line {i} is not json: {exc.msg}")
    return events, problems


def rehash(events: list[dict]) -> list[str]:
    """Walk the chain from genesis, recomputing each event's digest."""
    prev = GENESIS
    for i, event in enumerate(events, 1):
        if event.get("seq") != i:
            return [f"event {i}: seq reads {event.get('seq')}"]
        if event.get("prev_hash") != prev:
            return [f"event {i}: prev_hash does not link to event {i - 1}"]
        body = json.dumps([event["seq"], event["at"], event["actor"], event["action"],
                           event["object"], sorted(event["detail"].items()), prev],
                          separators=(",", ":"))
        if hashlib.sha256(body.encode("utf-8")).hexdigest() != event.get("this_hash"):
            return [f"event {i}: this_hash does not match its content"]
        prev = event["this_hash"]
    return []


def export_problems(text: str) -> tuple[list[dict], list[str]]:
    events, problems = parse_export(text.splitlines())
    return events, problems or rehash(events)


class Recount:
    """Report counts, identities and session traces re-derived from raw
    exported events. `upto` limits a question to the first `upto` events,
    the ledger as it stood when the program was asked."""

    def __init__(self, events: list[dict]):
        self.events = events
        self.by_project: dict[str, list[dict]] = {}
        self.maps_by_user: dict[str, list[dict]] = {}
        self.closes: dict[str, list[dict]] = {}
        self.by_session: dict[str, list[dict]] = {}
        self.affiliates: list[dict] = []
        for e in events:
            detail = e["detail"]
            project = detail.get("project")
            if project is not None:
                self.by_project.setdefault(project, []).append(e)
            action = e["action"]
            if action == "map":
                self.maps_by_user.setdefault(detail["arbitrary_user"], []).append(e)
            elif action in ("close", "revoke-forced-close"):
                self.closes.setdefault(e["object"], []).append(e)
            elif action == "register" and detail.get("affiliation") == "affiliate":
                self.affiliates.append(e)
            if SESSION_ID.fullmatch(e["object"]):
                self.by_session.setdefault(e["object"], []).append(e)
            elif "session" in detail:
                self.by_session.setdefault(detail["session"], []).append(e)

    def report(self, project: str, start: int, end: int, upto: int | None = None) -> dict:
        upto = len(self.events) if upto is None else upto
        everything = [e for e in self.by_project.get(project, []) if e["seq"] <= upto]
        mine = [e for e in everything if start <= e["at"] <= end]
        sessions = {"vpn": 0, "rdp": 0}
        for e in mine:
            if e["action"] == "map":
                mode = e["detail"].get("mode", "")
                sessions[mode] = sessions.get(mode, 0) + 1
        provisioned = {e["object"]: e["at"] for e in everything if e["action"] == "provision"}
        destroyed: dict[str, int] = {}
        for e in everything:
            if e["action"] == "destroy":
                destroyed.setdefault(e["object"], e["at"])
        sessioned = {e["detail"]["vm"] for e in mine
                     if e["action"] == "map" and "vm" in e["detail"]}
        flags = sorted(vm for vm, born in provisioned.items()
                       if born <= end and destroyed.get(vm, end + 1) >= start
                       and vm not in sessioned)
        affiliates = {e["detail"]["netid"] for e in self.affiliates if e["seq"] <= upto}
        stewards: set[str] = set()
        for e in everything:
            if e["action"] == "project-create":
                stewards.update(s for s in e["detail"].get("stewards", "").split(",") if s)
        return {
            "project_id": project,
            "period_start": start,
            "period_end": end,
            "sessions_by_mode": sessions,
            "egress_allowed": sum(1 for e in mine if e["action"] == "egress-allow"),
            "egress_denied": sum(1 for e in mine if e["action"] == "egress-deny"),
            "exception_traversals": sum(
                1 for e in mine if e["action"] == "traverse"
                and e["detail"].get("via", "").startswith("exception")),
            "grants": sum(1 for e in mine if e["action"] == "grant"),
            "revokes": sum(1 for e in mine if e["action"] == "revoke"),
            "efficiency_flags": flags,
            "affiliate_stewards": sorted(stewards & affiliates),
        }

    def resolve(self, arbitrary_user: str, at: int, upto: int | None = None) -> str | None:
        """Scan the name's map events in ledger order; each tenure ends at
        its session's first close."""
        upto = len(self.events) if upto is None else upto
        for m in self.maps_by_user.get(arbitrary_user, []):
            if m["seq"] > upto:
                break
            ends = [c["at"] for c in self.closes.get(m["object"], []) if c["seq"] <= upto]
            if m["at"] <= at and (not ends or at <= ends[0]):
                return m["detail"]["principal"]
        return None

    def session_events(self, session_id: str, upto: int | None = None) -> list[dict]:
        upto = len(self.events) if upto is None else upto
        return [{k: e[k] for k in EVENT_FIELDS}
                for e in self.by_session.get(session_id, []) if e["seq"] <= upto]


# -- replay --------------------------------------------------------------------------

# Scenario step -> the ledger actions it must leave, one event per step.
STEP_ACTIONS = {
    "map": ({"open_session", "resume_session"}, {"map"}),
    "close": ({"close_session"}, {"close"}),
    "egress": ({"attempt_clipboard", "attempt_file_egress"}, {"egress-allow", "egress-deny"}),
    "export-submit": ({"submit_export"}, {"export-submit"}),
    "export-adjudicate": ({"adjudicate_export"}, {"export-adjudicate"}),
}


def final_clock(scenario: dict) -> int:
    return scenario["clock"] + sum(int(s["args"]["seconds"]) for s in scenario["steps"]
                                   if s["op"] == "advance")


def check_replay(scenario: dict, step_ok: list[bool], export_text: str,
                 reports: dict[str, dict]) -> list[str]:
    """`step_ok`: one flag per executed step; `reports`: the program's
    whole-history compliance report per project, taken after the replay."""
    problems = []
    steps = scenario["steps"]
    if len(step_ok) != len(steps) or not all(step_ok):
        done = sum(1 for ok in step_ok if ok)
        problems.append(f"{done} of {len(steps)} steps succeeded")
    events, export_bad = export_problems(export_text)
    problems += export_bad
    if export_bad:
        return problems
    op_counts: dict[str, int] = {}
    for s in steps:
        op_counts[s["op"]] = op_counts.get(s["op"], 0) + 1
    action_counts: dict[str, int] = {}
    for e in events:
        action_counts[e["action"]] = action_counts.get(e["action"], 0) + 1
    for label, (ops, actions) in STEP_ACTIONS.items():
        want = sum(op_counts.get(op, 0) for op in ops)
        got = sum(action_counts.get(a, 0) for a in actions)
        if want != got:
            problems.append(f"{label}: {got} events for {want} steps")
    recount = Recount(events)
    end = final_clock(scenario)
    projects = [s["args"]["id"] for s in steps if s["op"] == "register_project"]
    if sorted(reports) != sorted(projects):
        problems.append(f"reports cover {len(reports)} of {len(projects)} projects")
    bad = [p for p in projects if p in reports and reports[p] != recount.report(p, 0, end)]
    problems += [f"report for {p} differs from the recount" for p in bad]
    return _first(problems)


# -- audit ---------------------------------------------------------------------------


def events_digest(events: list[dict]) -> str:
    return hashlib.sha256(json.dumps(events, sort_keys=True).encode("utf-8")).hexdigest()


def check_audit(records: list[tuple], export_text: str) -> list[str]:
    """`records`: (op, args, ledger length before the call, response or
    None when the call failed), in the order they were sent. A
    reconstruct_session response is kept as the `events_digest` of its events."""
    events, problems = export_problems(export_text)
    if problems:
        return problems
    recount = Recount(events)
    opened: dict[str, dict] = {}
    for i, (op, args, upto, response) in enumerate(records):
        where = f"op {i} ({op})"
        if response is None:
            problems.append(f"{where} failed")
            continue
        if op == "compliance_report":
            if response != recount.report(args["project"], args["start"], args["end"], upto):
                problems.append(f"{where}: report for {args['project']} differs from the recount")
        elif op == "resolve_identity":
            want = recount.resolve(args["arbitrary_user"], args["at"], upto)
            if response.get("netid") != want:
                problems.append(f"{where}: resolved {response.get('netid')!r}, scan says {want!r}")
        elif op == "reconstruct_session":
            want = events_digest(recount.session_events(args["session"], upto))
            if response.get("events_sha256") != want:
                problems.append(f"{where}: events of {args['session']} differ from the export")
        elif op == "verify_chain":
            if response != {"ok": True, "first_bad_seq": None}:
                problems.append(f"{where}: chain reported broken: {response}")
        elif op == "open_session":
            opened[response.get("session_id")] = args
            if not set(response) <= CLIENT_VIEW_KEYS:
                problems.append(f"{where}: client view carries {sorted(set(response) - CLIENT_VIEW_KEYS)}")
        elif op in ("attempt_clipboard", "attempt_file_egress"):
            problems += _egress_problems(where, op, opened.get(args["session"]), response)
    return _first(problems)


def _egress_problems(where: str, op: str, opened: dict | None, response: dict) -> list[str]:
    if opened is None:
        return [f"{where}: egress on a session never opened"]
    mode = opened["mode"]
    if op == "attempt_clipboard":
        allowed = clipboard_allowed(mode)
    else:
        allowed = file_egress_allowed(mode, bool(opened.get("endpoint_managed")))
    if response.get("verdict") != ("allow" if allowed else "deny"):
        return [f"{where}: {op} in a {mode} session answered {response.get('verdict')!r}"]
    return []


# -- wire ----------------------------------------------------------------------------


def check_wire(tiers: dict[str, str], grants: set[tuple[str, str, str]],
               exchanges: list[tuple[dict, dict]], export_response: dict) -> list[str]:
    """`exchanges`: (request, response) pairs of one connection, in order;
    `tiers`: project -> classification; `grants`: (netid, project, mode)."""
    problems = []
    opened: dict[str, dict] = {}
    closed_sessions = []
    for request, response in exchanges:
        op, args = request["op"], request["args"]
        where = f"request {request['id']} ({op})"
        if response.get("id") != request["id"]:
            problems.append(f"{where}: answered with id {response.get('id')!r}")
        if response.get("ok") is not True:
            problems.append(f"{where}: {response.get('error')}")
            continue
        result = response["result"]
        if op == "check_access":
            allowed = access_allowed(tiers[args["project"]],
                                     (args["netid"], args["project"], args["mode"]) in grants)
            if result.get("verdict") != ("allow" if allowed else "deny"):
                problems.append(f"{where}: verdict {result.get('verdict')!r}")
        elif op == "authorize_mode":
            want = sorted(m for m in ("rdp", "vpn") if access_allowed(
                tiers[args["project"]], (args["netid"], args["project"], m) in grants))
            if result.get("modes") != want:
                problems.append(f"{where}: modes {result.get('modes')} for {want}")
        elif op == "open_session":
            if not set(result) <= CLIENT_VIEW_KEYS:
                problems.append(f"{where}: client view carries {sorted(set(result) - CLIENT_VIEW_KEYS)}")
            if result.get("mode") != args["mode"]:
                problems.append(f"{where}: opened in mode {result.get('mode')!r}")
            opened[result.get("session_id")] = args
        elif op in ("attempt_clipboard", "attempt_file_egress"):
            problems += _egress_problems(where, op, opened.get(args["session"]), result)
        elif op == "close_session":
            if result.get("state") != "closed":
                problems.append(f"{where}: session left {result.get('state')!r}")
        elif op == "reconstruct_session":
            closed_sessions.append((where, args["session"], result.get("events")))
    result = export_response.get("result") if export_response.get("ok") else None
    lines = result.get("lines", []) if result else []
    events, export_bad = parse_export(lines)
    problems += export_bad or rehash(events)
    if not lines or result.get("events") != len(lines):
        problems.append("export_ledger returned no lines or a wrong count")
    if not export_bad:
        recount = Recount(events)
        for where, session_id, got in closed_sessions:
            # The session was closed before the trace was asked for, so no
            # event of it can follow: the final export is the reference.
            if got != recount.session_events(session_id):
                problems.append(f"{where}: events of {session_id} differ from the export")
    return _first(problems)
