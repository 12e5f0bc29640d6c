"""Fast self-check of the benchmark's correctness checks.

    python3 bench/selfcheck.py

Runs one round of each workload at a tiny size and shows that its checks
pass on the program's real outputs. Then it corrupts one output at a time
(a report count off by one, a flipped export byte, a wrong verdict, ...)
and shows that the checks reject each corrupted copy. Last, it replays the
reference scenario and compares its export with the stored SHA-256
(`export_sha.py`). Exits 1 if any step goes the wrong way.
"""

from __future__ import annotations

import copy
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import export_sha
from run import OUT, load_program


def flip_byte(text: str) -> str:
    """Flip the lowest bit of the middle character."""
    i = len(text) // 2
    return text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]


def rechain(events: list[dict]) -> str:
    """Export text with seq and hashes recomputed, so that only the
    content differs from a genuine export."""
    prev, lines = checks.GENESIS, []
    for seq, event in enumerate(events, 1):
        event = {**event, "seq": seq, "prev_hash": prev}
        body = json.dumps([seq, event["at"], event["actor"], event["action"], event["object"],
                           sorted(event["detail"].items()), prev], separators=(",", ":"))
        event["this_hash"] = prev = hashlib.sha256(body.encode("utf-8")).hexdigest()
        lines.append(json.dumps(event, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def first_index(items, predicate) -> int:
    for i, item in enumerate(items):
        if predicate(item):
            return i
    raise LookupError("the tiny run produced no output of the kind to corrupt")


def replay_corruptions():
    def step_failed(f):
        f["step_ok"][-1] = False

    def export_flipped(f):
        f["export"] = flip_byte(f["export"])

    def map_event_dropped(f):
        events, _ = checks.parse_export(f["export"].splitlines())
        del events[first_index(events, lambda e: e["action"] == "map")]
        f["export"] = rechain(events)

    def report_off_by_one(f):
        project = sorted(f["reports"])[0]
        f["reports"][project]["grants"] += 1

    def report_missing(f):
        del f["reports"][sorted(f["reports"])[-1]]

    return [step_failed, export_flipped, map_event_dropped, report_off_by_one, report_missing]


def audit_corruptions():
    def replace_response(op, change):
        def corrupt(f):
            i = first_index(f["records"], lambda r: r[0] == op)
            op_name, args, upto, response = f["records"][i]
            f["records"][i] = (op_name, args, upto, change(copy.deepcopy(response)))
        corrupt.__name__ = f"{op}_{change.__name__}"
        return corrupt

    def off_by_one(report):
        report["egress_denied"] += 1
        return report

    def other_principal(answer):
        answer["netid"] = "res999"
        return answer

    def reconstruct_session_event_missing(f):
        i = first_index(f["records"], lambda r: r[0] == "reconstruct_session")
        op, args, upto, response = f["records"][i]
        events, _ = checks.parse_export(f["export"].splitlines())
        trace = checks.Recount(events).session_events(args["session"], upto)
        f["records"][i] = (op, args, upto, {**response,
                                            "events_sha256": checks.events_digest(trace[:-1])})

    def broken(_):
        return {"ok": False, "first_bad_seq": 1}

    def verdict_flipped(decision):
        decision["verdict"] = "deny" if decision["verdict"] == "allow" else "allow"
        return decision

    def secret_disclosed(view):
        view["secret"] = "0" * 32
        return view

    def failed(_):
        return None

    def export_flipped(f):
        f["export"] = flip_byte(f["export"])

    return [replace_response("compliance_report", off_by_one),
            replace_response("resolve_identity", other_principal),
            reconstruct_session_event_missing,
            replace_response("verify_chain", broken),
            replace_response("attempt_clipboard", verdict_flipped),
            replace_response("attempt_file_egress", verdict_flipped),
            replace_response("open_session", secret_disclosed),
            replace_response("close_session", failed),
            export_flipped]


def wire_corruptions():
    def replace_result(op, change):
        def corrupt(f):
            i = first_index(f["exchanges"], lambda x: x[0]["op"] == op)
            request, response = f["exchanges"][i]
            response = copy.deepcopy(response)
            change(response)
            f["exchanges"][i] = (request, response)
        corrupt.__name__ = f"{op}_{change.__name__}"
        return corrupt

    def refused(response):
        response["ok"] = False
        response["error"] = {"code": "internal-error", "message": "corrupted"}

    def verdict_flipped(response):
        result = response["result"]
        result["verdict"] = "deny" if result["verdict"] == "allow" else "allow"

    def mode_added(response):
        response["result"]["modes"] = sorted(set(response["result"]["modes"]) ^ {"rdp"})

    def secret_disclosed(response):
        response["result"]["secret"] = "0" * 32

    def left_open(response):
        response["result"]["state"] = "open"

    def event_missing(response):
        response["result"]["events"] = response["result"]["events"][:-1]

    def export_flipped(f):
        lines = f["export"]["result"]["lines"]
        lines[len(lines) // 2] = flip_byte(lines[len(lines) // 2])

    return [replace_result("grant_access", refused),
            replace_result("check_access", verdict_flipped),
            replace_result("authorize_mode", mode_added),
            replace_result("open_session", secret_disclosed),
            replace_result("attempt_clipboard", verdict_flipped),
            replace_result("attempt_file_egress", verdict_flipped),
            replace_result("close_session", left_open),
            replace_result("reconstruct_session", event_missing),
            export_flipped]


TINY = {
    "replay": ({"sessions": 40}, replay_corruptions),
    "audit": ({"sessions": 40, "lookups": 20, "verifies": 1, "visits": 6}, audit_corruptions),
    "wire": ({"visits": 80}, wire_corruptions),
}


def main() -> int:
    load_program()
    import workloads
    OUT.mkdir(exist_ok=True)
    wrong = 0
    workdir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=OUT))
    try:
        for name, (sizes, corruptions) in TINY.items():
            workload = workloads.WORKLOADS[name](7, workdir, **sizes)
            workload.run_round(keep=True)
            genuine = workload.first
            problems = workload.check()
            print(f"{name}: genuine outputs {'pass' if not problems else 'FAIL'}"
                  f"{'' if not problems else ': ' + '; '.join(problems)}")
            wrong += bool(problems)
            for corrupt in corruptions():
                workload.first = copy.deepcopy(genuine)
                corrupt(workload.first)
                problems = workload.check()
                verdict = "rejected" if problems else "ACCEPTED"
                print(f"{name}: {corrupt.__name__}: {verdict}"
                      f"{': ' + problems[0] if problems else ''}")
                wrong += not problems
            workload.first = genuine
        stored, measured = export_sha.stored(), export_sha.measure(workdir)
        same = stored["sha256"] == measured["sha256"]
        print(f"replay export of the reference scenario: "
              f"{'matches' if same else 'DIFFERS FROM'} the stored SHA-256")
        wrong += not same
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-check passed" if not wrong else f"self-check: {wrong} wrong outcome(s)")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
