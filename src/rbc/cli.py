"""Command-line front end.

Exit codes: 0 success, 2 parse or validation problem, 3 verification
failure, 4 step limit hit, 5 state limit hit.  The RBC_MAX_WIDTH
environment variable overrides the truth-table width cap of ``truth``
only; it must lie in 0..20, since a table holds 2**width bits per wire.
``normalize --verify`` keeps the default cap of 12 wires.

Commands raise; only ``main`` turns an error into an exit code, through
one table (``EXIT_CODES``): ``StepLimitExceeded`` exits 4,
``StateLimitExceeded`` exits 5 and any other ``RbcError`` exits 2, each
with one ``error:`` line on standard error, never a traceback.  Exit 2
covers a file that cannot be read (missing, a directory, no
permission), a file that is not UTF-8 text (reported with the line of
the first bad byte), a malformed circuit or rule file, one above the
parser's limits (``files.MAX_WIRES`` = 65536 wires, ``files.MAX_GATES``
= 1000000 gates), an RBC_MAX_WIDTH that is not an integer or lies
outside 0..20 (checked before any table is built), a negative
--max-steps or --max-states, and an eval input that is not a bit string
of the circuit's width.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .diagram import Diagram, sort_key
from .errors import InputError, ParseError, RbcError, StateLimitExceeded, StepLimitExceeded
from .files import format_circuit, parse_circuit, parse_rules
from .measure import measure, verify_strict
from .moves import total_rank
from .rewriting import (
    Rule,
    all_normal_forms,
    builtin_rules,
    normalize,
    verify_trace,
)
from .semantics import bits_to_str, evaluate, truth_table

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_STEP_LIMIT = 4
EXIT_STATE_LIMIT = 5

# The exit code of each error type; any other RbcError exits EXIT_PARSE.
EXIT_CODES = {
    StepLimitExceeded: EXIT_STEP_LIMIT,
    StateLimitExceeded: EXIT_STATE_LIMIT,
}


def _read(path: str) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise ParseError(line, f"not UTF-8 text (byte 0x{data[e.start]:02x})") from None


def _load_circuit(path: str) -> Diagram:
    return parse_circuit(_read(path))


def _load_rules(path: str | None) -> tuple[Rule, ...]:
    if path is None:
        return builtin_rules()
    return parse_rules(_read(path))


# Largest RBC_MAX_WIDTH accepted: a w20 table is 20 columns of 128 KiB.
MAX_WIDTH_CAP = 20


def _width_cap() -> int | None:
    raw = os.environ.get("RBC_MAX_WIDTH")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f'RBC_MAX_WIDTH "{raw}" is not an integer') from None
    if not 0 <= cap <= MAX_WIDTH_CAP:
        raise InputError(f"RBC_MAX_WIDTH {cap} is outside 0..{MAX_WIDTH_CAP}")
    return cap


def _limit(option: str, value: int | None) -> int | None:
    if value is not None and value < 0:
        raise InputError(f"{option} must not be negative, got {value}")
    return value


def cmd_check(args: argparse.Namespace) -> int:
    d = _load_circuit(args.file)
    print(f"ok: width={d.width} gates={len(d.gates)}")
    return EXIT_OK


def cmd_truth(args: argparse.Namespace) -> int:
    d = _load_circuit(args.file)
    for line in truth_table(d, max_width=_width_cap()).lines():
        print(line)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    d = _load_circuit(args.file)
    raw = args.input
    if not all(ch in "01" for ch in raw):
        raise InputError(f'input "{raw}" is not a bit string')
    out = evaluate(d, tuple(int(ch) for ch in raw))
    print(f"{raw} -> {bits_to_str(out)}")
    return EXIT_OK


def cmd_measure(args: argparse.Namespace) -> int:
    d = _load_circuit(args.file)
    m = measure(d)
    for line in m.lines():
        print(line)
    print(f"rank {total_rank(m)}")
    return EXIT_OK


def cmd_normalize(args: argparse.Namespace) -> int:
    max_steps = _limit("--max-steps", args.max_steps)
    d = _load_circuit(args.file)
    rules = _load_rules(args.rules)
    nf, trace = normalize(d, rules, max_steps=max_steps)
    # Checked before anything is printed, so that a check that cannot
    # run (a circuit above the table cap) leaves no uncertified output.
    report = verify_trace(trace) if args.verify else None
    if args.trace:
        for line in trace.lines():
            print(line)
    print(format_circuit(nf))
    if report is None:
        return EXIT_OK
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_nfs(args: argparse.Namespace) -> int:
    max_states = _limit("--max-states", args.max_states)
    d = _load_circuit(args.file)
    rules = _load_rules(args.rules)
    forms = all_normal_forms(d, max_states=max_states, rules=rules)
    for i, nf in enumerate(sorted(forms, key=sort_key)):
        print(f"nf {i + 1}:")
        print(format_circuit(nf))
    print(f"count {len(forms)}")
    return EXIT_OK


def cmd_verify_rules(args: argparse.Namespace) -> int:
    rules = _load_rules(args.rules)
    report = verify_strict(rules)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.all_strict else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbc",
        description="Reversible boolean circuits: check, run, measure, normalize.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate a circuit file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("truth", help="print the circuit's truth table")
    p.add_argument("file")
    p.set_defaults(func=cmd_truth)

    p = sub.add_parser("eval", help="run the circuit on one input")
    p.add_argument("file")
    p.add_argument("--input", required=True, metavar="BITS")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("measure", help="print the circuit's word map and rank")
    p.add_argument("file")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("normalize", help="rewrite the circuit to a normal form")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true", help="print each step")
    p.add_argument("--verify", action="store_true",
                   help="re-check every step (semantics and measure)")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--rules", default=None, metavar="FILE")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("nfs", help="enumerate all reachable normal forms")
    p.add_argument("file")
    p.add_argument("--max-states", type=int, default=10000)
    p.add_argument("--rules", default=None, metavar="FILE")
    p.set_defaults(func=cmd_nfs)

    p = sub.add_parser("verify-rules",
                       help="check that every rule strictly lowers the measure")
    p.add_argument("--rules", default=None, metavar="FILE")
    p.set_defaults(func=cmd_verify_rules)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RbcError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CODES.get(type(e), EXIT_PARSE)


if __name__ == "__main__":
    sys.exit(main())
