"""Command-line front-end: scenario runner, attester, verifier.

Exit codes: 0 success / all expectations hold, 1 expectation or verification
failure, 2 parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import attest as attest_mod
from . import state as state_mod
from .errors import ErrorCode, MonitorError
from .machine import parse_config
from .scenario import ScenarioRunner, ScriptError, parse_script

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="capmon",
        description="capability monitor simulator and attestation tooling")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario script")
    p_run.add_argument("config")
    p_run.add_argument("script")
    p_run.add_argument("--mode", choices=("step", "concurrent"),
                       default="step")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--trace", help="write the operation trace here")
    p_run.add_argument("--dump", help="write the final state dump here")
    p_run.add_argument("--attest", action="append", default=[],
                       metavar="NAME=PATH",
                       help="write a report captured by the script "
                            "(binary at PATH, text at PATH.txt, "
                            "metadata at PATH.meta.json)")
    p_run.add_argument("--quantum", type=int, default=None,
                       help="experimental per-switch step budget")
    p_run.set_defaults(fn=cmd_run)

    p_att = sub.add_parser("attest", help="attest a domain from a state dump")
    p_att.add_argument("dump")
    p_att.add_argument("subject", type=int,
                       help="engine domain id to attest")
    p_att.add_argument("--out", help="write the binary report here")
    p_att.set_defaults(fn=cmd_attest)

    p_ver = sub.add_parser("verify", help="verify a report file")
    p_ver.add_argument("report")
    p_ver.add_argument("--key", help="monitor public key (hex)")
    p_ver.add_argument("--pcr", help="expected boot measurement (hex)")
    p_ver.add_argument("--meta", help="metadata json with key and pcr")
    p_ver.add_argument("--nonce", help="expected nonce (hex)")
    p_ver.add_argument("--confidential", metavar="NAME",
                       help="evaluate the confidentiality predicate")
    p_ver.add_argument("--encapsulated", nargs=2,
                       metavar=("CHILD", "PARENT"),
                       help="evaluate the encapsulation predicate")
    p_ver.add_argument("--text", action="store_true",
                       help="print the text projection")
    p_ver.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    return args.fn(args)


def cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            config = parse_config(fh.read())
        with open(args.script) as fh:
            statements = parse_script(fh.read())
    except (OSError, ScriptError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MonitorError as exc:
        if exc.code is ErrorCode.BAD_CONFIG:
            print(f"parse error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        raise

    runner = ScenarioRunner(config, seed=args.seed,
                            concurrent=args.mode == "concurrent",
                            quantum=args.quantum)
    status = runner.run(statements)

    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(runner.engine.trace.dump())
    if args.dump:
        state_mod.write_dump(runner.engine, args.dump)
    for spec in args.attest:
        if "=" not in spec:
            print(f"bad --attest spec {spec!r}", file=sys.stderr)
            return EXIT_PARSE
        name, path = spec.split("=", 1)
        report = runner.reports.get(name)
        if report is None:
            print(f"script produced no report named {name!r}",
                  file=sys.stderr)
            return EXIT_FAIL
        _write_report(report, path, runner)

    for failure in runner.failures:
        print(f"expect failed (line {failure.lineno}): {failure.message}",
              file=sys.stderr)
    if status == 0:
        print(f"ok: {len(statements)} statements, "
              f"{len(runner.engine.trace.records)} operations")
    return status


def _write_report(report, path: str, runner: ScenarioRunner):
    with open(path, "wb") as fh:
        fh.write(report.to_bytes())
    with open(path + ".txt", "w") as fh:
        fh.write(report.text())
    meta = {
        "monitor_public_key": attest_mod.monitor_public_key(
            runner.engine.seed).hex(),
        "pcr": runner.engine.measurement.pcr.hex(),
        "names": {str(dom_id): name for dom_id, name
                  in getattr(report, "name_of_domain", {}).items()},
    }
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)


def cmd_attest(args) -> int:
    try:
        engine = state_mod.read_dump(args.dump)
    except (OSError, ValueError, KeyError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.subject not in engine.domains:
        print("unknown or revoked subject", file=sys.stderr)
        return EXIT_FAIL
    report = attest_mod.build_report(engine, args.subject)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(report.to_bytes())
        with open(args.out + ".txt", "w") as fh:
            fh.write(report.text())
    sys.stdout.write(report.text())
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        with open(args.report, "rb") as fh:
            blob = fh.read()
        report = attest_mod.AttestationReport.from_bytes(blob)
    except OSError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MonitorError as exc:
        print(f"parse error: {exc.code.name}", file=sys.stderr)
        return EXIT_PARSE

    key = args.key
    pcr = args.pcr
    if args.meta:
        try:
            with open(args.meta) as fh:
                meta = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        key = key or meta.get("monitor_public_key")
        pcr = pcr or meta.get("pcr")
    if not key or not pcr:
        print("need --key and --pcr (or --meta)", file=sys.stderr)
        return EXIT_PARSE

    nonce = bytes.fromhex(args.nonce) if args.nonce else None
    try:
        attest_mod.verify_report(report, bytes.fromhex(key),
                                 bytes.fromhex(pcr), nonce)
    except MonitorError as exc:
        print(exc.code.name)
        return EXIT_FAIL
    print("verify: accept")

    status = EXIT_OK
    if args.text:
        sys.stdout.write(report.text())
    if args.confidential:
        verdict, clauses = attest_mod.is_confidential(report,
                                                      args.confidential)
        _print_clauses(f"is_confidential({args.confidential})",
                       verdict, clauses)
        status = status or (EXIT_OK if verdict else EXIT_FAIL)
    if args.encapsulated:
        child, parent = args.encapsulated
        verdict, clauses = attest_mod.is_encapsulated(report, child, parent)
        _print_clauses(f"is_encapsulated({child}, {parent})",
                       verdict, clauses)
        status = status or (EXIT_OK if verdict else EXIT_FAIL)
    return status


def _print_clauses(label: str, verdict: bool, clauses):
    print(f"{label} = {'true' if verdict else 'false'}")
    for clause in clauses:
        mark = "+" if clause.ok else "-"
        print(f"  {mark} {clause.name}: {clause.detail}")


if __name__ == "__main__":
    sys.exit(main())
