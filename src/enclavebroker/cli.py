"""Command-line front end.

``init`` validates config files, ``run`` replays a scenario deterministically,
``serve`` exposes the broker on a local socket, and the remaining verbs are
thin clients that send one operation to a running server, with options
derived from the arguments that operation declares in ``OPS``. Flags mirror
environment variables with the ``BROKER_`` prefix.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .broker import OPS, REQUIRED, Arg
from .configio import build_broker, load_scenario, run_scenario
from .errors import BindFailure, BrokerError, ParseError, SchemaError
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


# Client verbs: each names its positional arguments and maps its action (None
# for a verb without one) to one broker operation. Every other argument that
# the verb's ops declare is the option --<name>, typed as OPS declares it.
CLIENT_VERBS: dict[str, tuple[tuple[str, ...], dict[str | None, str]]] = {
    "user": (("netid",), {"add": "register_user", "deactivate": "deactivate_user",
                          "mfa": "verify_mfa"}),
    "group": (("name",), {"create": "create_group", "add": "set_membership",
                          "remove": "set_membership"}),
    "project": (("id",), {None: "register_project"}),
    "grant": (("project", "netid", "mode"), {None: "grant_access"}),
    "revoke": (("project", "netid", "mode"), {None: "revoke_access"}),
    "vm": ((), {"provision": "provision_vm", "resize": "resize_vm",
                "destroy": "destroy_vm", "read-disk": "read_disk"}),
    "share": ((), {"create": "create_share", "acl": "set_share_acl"}),
    "session": ((), {"open": "open_session", "close": "close_session",
                     "resume": "resume_session"}),
    "egress": (("session",), {"clipboard": "attempt_clipboard",
                              "file": "attempt_file_egress"}),
    "export": ((), {"submit": "submit_export", "adjudicate": "adjudicate_export"}),
    "image": ((), {"submit": "submit_image", "vet": "vet_image",
                   "approve": "approve_image", "deploy": "deploy_image"}),
    "audit": ((), {"trace": "reconstruct_session", "resolve": "resolve_identity",
                   "verify": "verify_chain", "report": "compliance_report"}),
}
# What a client command sends for an option left unset, by the op it sends:
# a default serves its own action only, so it never fills an argument that
# another action of the same verb requires. It may fill one that its own
# action requires (vm provision's cpu, session open's mode). Any other unset
# option is not sent, so the op's own default applies.
CLI_DEFAULTS = {
    "register_user": {"actor": "broker"},
    "create_group": {"kind": "role"},
    "provision_vm": {"zone": "protected-vrf", "cpu": 4, "ram": 16},
    "resize_vm": {"cpu": 4, "ram": 16},
    "create_share": {"protocol": "cifs", "capacity_tb": 1.0},
    "open_session": {"mode": "rdp"},
    "resume_session": {"mode": "rdp"},
    "submit_image": {"source": "campus"},
    "compliance_report": {"start": 0},
}
# Op argument -> the parsed option that carries it, where the names differ.
OPTION_OF = {"group": "name", "endpoint_managed": "managed"}


def _connect_address(text: str) -> tuple[str, int]:
    try:
        return parse_address(text)
    except BindFailure as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parsed_as(arg: Arg) -> dict:
    """How argparse reads one declared argument."""
    if arg.kind is bool:
        return {"action": "store_true", "default": False}
    if arg.kind in (int, float):
        return {"type": arg.kind}
    if arg.values is not None:
        return {"choices": arg.values}
    return {"help": "comma-separated"} if arg.kind is list else {}


def _client_verb(sub, verb: str) -> None:
    positional, ops = CLIENT_VERBS[verb]
    parser = sub.add_parser(verb)
    parser.add_argument("--connect", type=_connect_address,
                        default=_env("LISTEN", DEFAULT_LISTEN))
    if None not in ops:
        parser.add_argument("action", choices=list(ops))
    declared: dict[str, Arg] = {}
    for op in ops.values():
        for arg in OPS[op].args:
            declared.setdefault(OPTION_OF.get(arg.name, arg.name), arg)
    for name in positional:
        parser.add_argument(name, **_parsed_as(declared.pop(name)))
    declared.pop("action", None)
    for name, arg in declared.items():
        parser.add_argument("--" + name.replace("_", "-"), **_parsed_as(arg))


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

    for verb in CLIENT_VERBS:
        _client_verb(sub, verb)
    return parser


def _require(args, names) -> None:
    missing = [n for n in names
               if getattr(args, OPTION_OF.get(n, n), None) in (None, "")]
    if missing:
        raise SchemaError("missing required option(s): "
                          + ", ".join("--" + n.replace("_", "-") for n in missing))


def _client_payload(args) -> tuple[str, dict]:
    """Map a parsed client verb onto (op, args): each argument the op
    declares is taken from the option of that name, or from the op's
    ``CLI_DEFAULTS`` when it is unset. A list argument is given as
    comma-separated values; an option still unset is not sent."""
    op = CLIENT_VERBS[args.verb][1][getattr(args, "action", None)]
    for name, value in CLI_DEFAULTS.get(op, {}).items():
        if getattr(args, name) is None:
            setattr(args, name, value)
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
        response = request(args.connect, op, payload)
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
