"""Command-line front end.

``init`` validates config files, ``run`` replays a scenario deterministically,
``serve`` exposes the broker on a local socket, and the remaining verbs are
thin clients that send one operation to a running server. Flags mirror
environment variables with the ``BROKER_`` prefix.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .configio import build_broker, load_scenario, run_scenario
from .errors import BrokerError, ParseError, SchemaError
from .service import BrokerServer, parse_address, request

DEFAULT_LISTEN = "127.0.0.1:7461"


def _env(name: str, default=None):
    return os.environ.get(f"BROKER_{name}", default)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", default=_env("TOPOLOGY"))
    parser.add_argument("--directory", default=_env("DIRECTORY"))
    parser.add_argument("--seed", type=int, default=int(_env("SEED", "0")))
    parser.add_argument("--retention-days", type=int,
                        default=int(_env("RETENTION_DAYS", "30")))


def _client_verb(sub, name: str, arguments: list[tuple[str, dict]]):
    parser = sub.add_parser(name)
    parser.add_argument("--connect", default=_env("LISTEN", DEFAULT_LISTEN))
    for arg, kwargs in arguments:
        parser.add_argument(arg, **kwargs)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="enclave-broker")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_init = sub.add_parser("init", help="validate topology and directory files")
    _add_common(p_init)

    p_run = sub.add_parser("run", help="replay a scenario deterministically")
    _add_common(p_run)
    p_run.add_argument("--scenario", default=_env("SCENARIO"))
    p_run.add_argument("--ledger-out", default=None)

    p_serve = sub.add_parser("serve", help="expose the broker on a local socket")
    _add_common(p_serve)
    p_serve.add_argument("--listen", default=_env("LISTEN", DEFAULT_LISTEN))

    # client verbs: each maps to exactly one broker operation
    _client_verb(sub, "user", [
        ("action", {"choices": ["add", "deactivate", "mfa"]}),
        ("netid", {}),
        ("--affiliation", {"default": "member"}),
        ("--sponsor", {"default": None}),
        ("--mfa-secret", {"default": None}),
        ("--proof", {"default": None}),
        ("--actor", {"default": "broker"}),
    ])
    _client_verb(sub, "group", [
        ("action", {"choices": ["create", "add", "remove"]}),
        ("name", {}),
        ("--netid", {"default": None}),
        ("--kind", {"default": "role"}),
        ("--actor", {"required": True}),
    ])
    _client_verb(sub, "project", [
        ("id", {}),
        ("--classification", {"required": True}),
        ("--stewards", {"required": True, "help": "comma-separated netids"}),
        ("--zone", {"default": "protected-vrf"}),
        ("--actor", {"required": True}),
    ])
    _client_verb(sub, "grant", [
        ("project", {}), ("netid", {}), ("mode", {"choices": ["vpn", "rdp"]}),
        ("--actor", {"required": True}),
    ])
    _client_verb(sub, "revoke", [
        ("project", {}), ("netid", {}), ("mode", {"choices": ["vpn", "rdp"]}),
        ("--actor", {"required": True}),
    ])
    _client_verb(sub, "vm", [
        ("action", {"choices": ["provision", "resize", "destroy", "read-disk"]}),
        ("--project", {"default": None}),
        ("--zone", {"default": "protected-vrf"}),
        ("--vm", {"default": None}),
        ("--cpu", {"type": int, "default": 4}),
        ("--ram", {"type": int, "default": 16}),
        ("--dedicated", {"action": "store_true"}),
    ])
    _client_verb(sub, "share", [
        ("action", {"choices": ["create", "acl"]}),
        ("--project", {"default": None}),
        ("--share", {"default": None}),
        ("--protocol", {"default": "cifs"}),
        ("--capacity-tb", {"type": float, "default": 1.0}),
        ("--dedicated-device", {"action": "store_true"}),
        ("--groups", {"default": ""}),
        ("--actor", {"default": "broker"}),
    ])
    _client_verb(sub, "session", [
        ("action", {"choices": ["open", "close", "resume"]}),
        ("--netid", {"default": None}),
        ("--project", {"default": None}),
        ("--mode", {"choices": ["vpn", "rdp"], "default": "rdp"}),
        ("--managed", {"action": "store_true"}),
        ("--session", {"default": None}),
    ])
    _client_verb(sub, "egress", [
        ("action", {"choices": ["clipboard", "file"]}),
        ("session", {}),
        ("--direction", {"choices": ["in", "out"], "default": "out"}),
        ("--object", {"default": "file"}),
    ])
    _client_verb(sub, "export", [
        ("action", {"choices": ["submit", "adjudicate"]}),
        ("--session", {"default": None}),
        ("--payload", {"default": None}),
        ("--request", {"default": None}),
        ("--broker", {"dest": "broker_netid", "default": None}),
        ("--verdict", {"choices": ["approved", "denied"], "default": None}),
        ("--rationale", {"default": None}),
    ])
    _client_verb(sub, "image", [
        ("action", {"choices": ["submit", "vet", "approve", "deploy"]}),
        ("--project", {"default": None}),
        ("--image", {"default": None}),
        ("--payload", {"default": None}),
        ("--source", {"default": "campus"}),
        ("--builder", {"default": None}),
        ("--vetter", {"default": None}),
        ("--report", {"default": None}),
        ("--approver", {"default": None}),
        ("--operator", {"default": None}),
        ("--digest", {"default": None}),
    ])
    _client_verb(sub, "audit", [
        ("action", {"choices": ["trace", "resolve", "verify", "report"]}),
        ("--session", {"default": None}),
        ("--arbitrary-user", {"default": None}),
        ("--at", {"type": int, "default": None}),
        ("--project", {"default": None}),
        ("--start", {"type": int, "default": 0}),
        ("--end", {"type": int, "default": None}),
    ])
    return parser


def _require(args, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) in (None, "")]
    if missing:
        raise SchemaError(f"missing required option(s): {', '.join('--' + n for n in missing)}")


def _client_payload(args) -> tuple[str, dict]:
    """Map a parsed client verb onto (op, args)."""
    verb = args.verb
    if verb == "user":
        if args.action == "add":
            return "register_user", {"netid": args.netid, "affiliation": args.affiliation,
                                     "sponsor": args.sponsor, "mfa_secret": args.mfa_secret,
                                     "actor": args.actor}
        if args.action == "deactivate":
            return "deactivate_user", {"actor": args.actor, "netid": args.netid}
        return "verify_mfa", {"netid": args.netid, "proof": args.proof}
    if verb == "group":
        if args.action == "create":
            return "create_group", {"name": args.name, "kind": args.kind,
                                    "actor": args.actor}
        _require(args, ["netid"])
        return "set_membership", {"actor": args.actor, "group": args.name,
                                  "netid": args.netid, "action": args.action}
    if verb == "project":
        return "register_project", {
            "actor": args.actor, "id": args.id,
            "classification": args.classification,
            "stewards": [s for s in args.stewards.split(",") if s],
            "zone": args.zone,
        }
    if verb in ("grant", "revoke"):
        return f"{verb}_access", {"actor": args.actor, "project": args.project,
                                  "netid": args.netid, "mode": args.mode}
    if verb == "vm":
        if args.action == "provision":
            _require(args, ["project"])
            return "provision_vm", {"project": args.project, "zone": args.zone,
                                    "cpu": args.cpu, "ram": args.ram,
                                    "dedicated": args.dedicated}
        _require(args, ["vm"])
        if args.action == "resize":
            return "resize_vm", {"vm": args.vm, "cpu": args.cpu, "ram": args.ram}
        if args.action == "destroy":
            return "destroy_vm", {"vm": args.vm}
        return "read_disk", {"vm": args.vm}
    if verb == "share":
        if args.action == "create":
            _require(args, ["project"])
            return "create_share", {"project": args.project, "protocol": args.protocol,
                                    "capacity_tb": args.capacity_tb,
                                    "dedicated_device": args.dedicated_device}
        _require(args, ["share"])
        return "set_share_acl", {"actor": args.actor, "share": args.share,
                                 "groups": [g for g in args.groups.split(",") if g]}
    if verb == "session":
        if args.action in ("open", "resume"):
            _require(args, ["netid", "project"])
            op = "open_session" if args.action == "open" else "resume_session"
            return op, {"netid": args.netid, "project": args.project,
                        "mode": args.mode, "endpoint_managed": args.managed}
        _require(args, ["session"])
        return "close_session", {"session": args.session}
    if verb == "egress":
        if args.action == "clipboard":
            return "attempt_clipboard", {"session": args.session,
                                         "direction": args.direction}
        return "attempt_file_egress", {"session": args.session, "object": args.object}
    if verb == "export":
        if args.action == "submit":
            _require(args, ["session", "payload"])
            return "submit_export", {"session": args.session, "payload": args.payload}
        _require(args, ["request", "verdict", "rationale"])
        return "adjudicate_export", {"broker": args.broker_netid, "request": args.request,
                                     "verdict": args.verdict, "rationale": args.rationale}
    if verb == "image":
        if args.action == "submit":
            _require(args, ["project", "payload", "builder"])
            return "submit_image", {"builder": args.builder, "project": args.project,
                                    "payload": args.payload, "source": args.source}
        _require(args, ["image"])
        if args.action == "vet":
            return "vet_image", {"vetter": args.vetter, "image": args.image,
                                 "report": args.report}
        if args.action == "approve":
            return "approve_image", {"approver": args.approver, "image": args.image}
        return "deploy_image", {"operator": args.operator, "image": args.image,
                                "project": args.project, "digest": args.digest}
    if verb == "audit":
        if args.action == "trace":
            _require(args, ["session"])
            return "reconstruct_session", {"session": args.session}
        if args.action == "resolve":
            _require(args, ["arbitrary-user"])
            return "resolve_identity", {"arbitrary_user": args.arbitrary_user,
                                        "at": args.at}
        if args.action == "verify":
            return "verify_chain", {}
        _require(args, ["project"])
        payload = {"project": args.project, "start": args.start}
        if args.end is not None:
            payload["end"] = args.end
        return "compliance_report", payload
    raise SchemaError(f"unknown verb {args.verb!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.verb == "init":
            _require(args, ["topology", "directory"])
            broker = build_broker(args.topology, args.directory, seed=args.seed,
                                  retention_days=args.retention_days)
            print(json.dumps({
                "status": "ready",
                "zones": sorted(broker.enclave.zones),
                "gateways": sorted(broker.enclave.gateways),
                "hosts": sorted(broker.enclave.hosts),
                "users": len(broker.directory.netids()),
            }))
            return 0

        if args.verb == "run":
            _require(args, ["topology", "directory", "scenario"])
            scenario = load_scenario(args.scenario)
            seed = args.seed if args.seed else scenario.seed
            broker = build_broker(args.topology, args.directory, seed=seed,
                                  start_time=scenario.clock,
                                  retention_days=args.retention_days)
            outcome = run_scenario(broker, scenario)
            if args.ledger_out:
                Path(args.ledger_out).write_text(outcome.ledger_text, encoding="utf-8")
            for result in outcome.mismatches:
                print(f"step {result.index} ({result.op}): {result.detail}",
                      file=sys.stderr)
            print(json.dumps({
                "steps": len(outcome.results),
                "exit": outcome.exit_code,
                "events": len(broker.ledger),
            }))
            return outcome.exit_code

        if args.verb == "serve":
            _require(args, ["topology", "directory"])
            broker = build_broker(args.topology, args.directory, seed=args.seed,
                                  retention_days=args.retention_days)
            server = BrokerServer(broker, parse_address(args.listen))
            # Flushed, so a supervisor reading a pipe learns the port while we serve.
            print(json.dumps({"listening": f"{server.address[0]}:{server.address[1]}"}),
                  flush=True)
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                server.shutdown()
            return 0

        # client verbs
        op, payload = _client_payload(args)
        response = request(parse_address(args.connect), op, payload)
        print(json.dumps(response, indent=2, default=str))
        return 0 if response.get("ok") else 1

    except (ParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokerError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
