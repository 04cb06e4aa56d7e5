"""Command-line entry point.

Three subcommands: ``generate`` writes a named algebra family to JSON,
``check`` runs theorem suites over an algebra document, and ``smear``
builds a smearing kernel for a stored observable and verifies the
integral law under it.

Exit codes: 0 when every record passes, 1 when any check fails, 2 for
unusable input (parse errors, size limits, I/O problems).  In ``check``
only the element-count limit is unusable input; a derived cap skips suites.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import EffectaError, ParseError, RdpRequired, SizeLimitExceeded
from .report import FAIL, PASS, SUITE_NAMES, Record, exit_code, render
from .serialize import (
    algebra_from_obj,
    algebra_to_obj,
    dumps,
    loads,
    observable_from_obj,
)

DEFAULT_MAX_SIZE = 4096
SEED_HELP = ("accepted for older scripts; reports are a function of the "
             "document alone and do not depend on it")


def _read_document(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc}") from exc
    return loads(text)


def _emit(text: str, output: str | None) -> None:
    """UTF-8 to ``output`` or to stdout, whatever stdout's encoding."""
    if output is not None:
        Path(output).write_text(text, encoding="utf-8")
    elif hasattr(sys.stdout, "buffer"):     # not a bare text stream
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _instance_id(path: str) -> str:
    return Path(path).stem


def cmd_generate(args) -> int:
    from .generators import generate, parse_family_tokens
    spec = parse_family_tokens(args.family)
    M = generate(spec, max_size=args.max_size)
    _emit(dumps(algebra_to_obj(M)), args.output)
    return 0


def cmd_check(args) -> int:
    from .suites import check_document, resolve_suites
    doc = _read_document(args.input)
    records = check_document(doc, _instance_id(args.input),
                             resolve_suites(args.suite),
                             max_size=args.max_size)
    _emit(render(records, args.format), args.output)
    return exit_code(records)


def cmd_smear(args) -> int:
    doc = _read_document(args.input)
    observable = _read_document(args.observable)
    records = _smear_records(
        doc, observable, _instance_id(args.input), args.max_size)
    _emit(render(records, args.format), args.output)
    return exit_code(records)


def _smear_records(doc, observable, instance: str,
                   max_size: int) -> list[Record]:
    """As in ``check``: an invalid table is one FAIL with its witness, and
    a library error other than a size cap or the representation gate is
    one ``error`` FAIL."""
    from .observables import first_mismatch, sample_mismatches, smear
    from .representation import canonical_representation
    from .suites import INVALID_ALGEBRA, witness_of
    try:
        M = algebra_from_obj(doc, max_size=max_size)
    except INVALID_ALGEBRA as exc:
        return [Record("smearing", instance, "requires-valid-algebra", FAIL,
                       witness=witness_of(exc), detail=str(exc))]
    x = observable_from_obj(M, observable)
    try:
        rep = canonical_representation(M)
        hit = first_mismatch(smear(rep, x), sample_mismatches(rep))
    except RdpRequired as exc:
        return [Record("smearing", instance, "canonical-representation",
                       FAIL, detail=str(exc))]
    except SizeLimitExceeded:
        raise
    except EffectaError as exc:
        return [Record("smearing", instance, "error", FAIL,
                       witness=witness_of(exc), detail=str(exc))]
    return [Record("smearing", instance, "eq-residual-zero",
                   PASS if hit is None else FAIL,
                   witness=None if hit is None
                   else [hit[0], sorted(str(x.support[j]) for j in hit[1])],
                   detail=f"{len(rep.polytope.numerators)} states")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effecta",
        description="Exact checks for effect algebras, their states, "
                    "smearings, and spectral measures.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a named algebra family to JSON")
    gen.add_argument("family", nargs="+",
                     help="family tokens, e.g. 'chain 3', 'boolean 2', "
                          "'interval 1 2', 'product chain2 chain3', "
                          "'horizontal-sum boolean2 boolean2'")
    gen.add_argument("--output", help="destination file (default: stdout)")
    gen.add_argument("--max-size", type=int, default=DEFAULT_MAX_SIZE,
                     help=f"element-count budget (default {DEFAULT_MAX_SIZE})")
    gen.set_defaults(func=cmd_generate)

    chk = sub.add_parser("check", help="run theorem suites over an algebra")
    chk.add_argument("--input", required=True, help="algebra document (JSON)")
    chk.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    chk.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    chk.add_argument("--max-size", type=int, default=DEFAULT_MAX_SIZE)
    chk.add_argument("--format", choices=("jsonl", "text"), default="jsonl")
    chk.add_argument("--output", help="destination file (default: stdout)")
    chk.set_defaults(func=cmd_check)

    sm = sub.add_parser("smear",
                        help="verify the integral law for one observable")
    sm.add_argument("--input", required=True, help="algebra document (JSON)")
    sm.add_argument("--observable", required=True,
                    help="observable document (JSON)")
    sm.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    sm.add_argument("--max-size", type=int, default=DEFAULT_MAX_SIZE)
    sm.add_argument("--format", choices=("jsonl", "text"), default="jsonl")
    sm.add_argument("--output", help="destination file (default: stdout)")
    sm.set_defaults(func=cmd_smear)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, SizeLimitExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
