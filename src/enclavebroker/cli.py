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

from .broker import OPS, REQUIRED
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


# Client verbs: (verb, action) -> op; verbs without an action use None.
CLIENT_OPS = {
    ("user", "add"): "register_user",
    ("user", "deactivate"): "deactivate_user",
    ("user", "mfa"): "verify_mfa",
    ("group", "create"): "create_group",
    ("group", "add"): "set_membership",
    ("group", "remove"): "set_membership",
    ("project", None): "register_project",
    ("grant", None): "grant_access",
    ("revoke", None): "revoke_access",
    ("vm", "provision"): "provision_vm",
    ("vm", "resize"): "resize_vm",
    ("vm", "destroy"): "destroy_vm",
    ("vm", "read-disk"): "read_disk",
    ("share", "create"): "create_share",
    ("share", "acl"): "set_share_acl",
    ("session", "open"): "open_session",
    ("session", "resume"): "resume_session",
    ("session", "close"): "close_session",
    ("egress", "clipboard"): "attempt_clipboard",
    ("egress", "file"): "attempt_file_egress",
    ("export", "submit"): "submit_export",
    ("export", "adjudicate"): "adjudicate_export",
    ("image", "submit"): "submit_image",
    ("image", "vet"): "vet_image",
    ("image", "approve"): "approve_image",
    ("image", "deploy"): "deploy_image",
    ("audit", "trace"): "reconstruct_session",
    ("audit", "resolve"): "resolve_identity",
    ("audit", "verify"): "verify_chain",
    ("audit", "report"): "compliance_report",
}
# Op argument -> the parsed option that carries it, where the names differ.
OPTION_OF = {"group": "name", "endpoint_managed": "managed", "broker": "broker_netid"}


def _require(args, names) -> None:
    missing = [n for n in names
               if getattr(args, OPTION_OF.get(n, n), None) in (None, "")]
    if missing:
        raise SchemaError("missing required option(s): "
                          + ", ".join("--" + n.replace("_", "-") for n in missing))


def _client_payload(args) -> tuple[str, dict]:
    """Map a parsed client verb onto (op, args): each argument the op
    declares is taken from the option of that name. A list argument is
    given as comma-separated values; an option left unset is not sent."""
    op = CLIENT_OPS[(args.verb, getattr(args, "action", None))]
    declared = OPS[op].args
    _require(args, [a.name for a in declared if a.default is REQUIRED])
    payload = {}
    for arg in declared:
        value = getattr(args, OPTION_OF.get(arg.name, arg.name), None)
        if value is None:
            continue
        if arg.kind is list:
            value = [item for item in value.split(",") if item]
        payload[arg.name] = value
    return op, payload


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
                "steps": outcome.matched + (outcome.failure is not None),
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
