"""Command line for constructing, verifying, attacking, and tracing codes.

Subcommands: construct, verify, trace, simulate, compose.  Exit codes:
0 success or property holds, 1 property fails, 2 tracer overflow, 64 usage
error, 65 malformed code file.  Handlers return their exit code, report
inputs, report result and human lines; ``main`` alone wraps them in the run
report, emits it, and maps errors to exit codes: ``CodeFormatError`` to 65,
and ``ValueError`` or ``OSError`` to 64.  Codeword labels are 1-based on
the command line (library internals are 0-based).  Reports serialize to a
single JSON document with sorted keys, so identical arguments and seed
give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .codes import (
    Code,
    CodeFormatError,
    format_feasible_line,
    parse_feasible_line,
    read_code_file,
    write_code_file,
)
from .construct import build_length3, one_hot_compose, optimal_s, size_defect
from .simulate import averaging_attack, correlate, embed, make_context, threshold
from .trace import TraceReport, lacc_identify, ssc_trace
from .verify import (
    CaptureStats,
    CollisionWitness,
    FramingWitness,
    Verdict,
    is_fpc,
    is_sc,
    is_ssc,
    is_ssc_naive,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_OVERFLOW = 2
EXIT_USAGE = 64
EXIT_PARSE = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exit code 2 is taken by overflow
        raise ValueError(message)


def _labels(indices) -> list[int]:
    """0-based library indices to sorted 1-based labels."""
    return sorted(int(i) + 1 for i in indices)


def _witness_json(witness) -> dict | None:
    if witness is None:
        return None
    if isinstance(witness, FramingWitness):
        return {
            "kind": "framing",
            "coalition": _labels(witness.coalition),
            "framed": witness.framed + 1,
            "captured": _labels(witness.captured),
        }
    if isinstance(witness, CollisionWitness):
        return {
            "kind": "descendant-collision",
            "first": _labels(witness.first),
            "second": _labels(witness.second),
        }
    # the deciders ``verify`` runs return no other kind: what is left is an AmbiguityWitness
    return {
        "kind": "coalition-ambiguity",
        "coalition": _labels(witness.coalition),
        "alternative": _labels(witness.alternative),
    }


def _stats_json(stats: CaptureStats | None) -> dict | None:
    if stats is None:
        return None
    return {
        "pairs": stats.pairs,
        "capture_histogram": {str(size): pairs for size, pairs in stats.histogram},
        "max_capture": stats.max_capture,
    }


def _trace_json(report: TraceReport) -> dict:
    return {
        "outcome": "overflow" if report.overflow else "identified",
        "message": report.message,
        "colluders": _labels(report.colluders),
        "candidates": _labels(report.candidates),
        "evidence": [
            {"position": pos + 1, "bit": bit, "codeword": idx + 1}
            for pos, bit, idx in report.evidence
        ],
        "t": report.t,
        "ops": report.ops,
    }


def _trace_line(report: TraceReport, identified: str) -> str:
    """Human line for a trace: the overflow message, or ``identified`` with the accused labels."""
    accused = " ".join(map(str, _labels(report.colluders))) or "(none)"
    if report.overflow:
        return f"overflow: {report.message} (accused {accused})"
    return identified.format(accused)


def _emit(target: str | None, report: dict, lines: list[str]) -> None:
    """Write the JSON report to stdout (``-``) or to a file, and the lines unless stdout took it."""
    if target is not None:
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if target == "-":
            sys.stdout.write(payload)
            return
        Path(target).write_text(payload)
    for line in lines:
        print(line)


def _load_code(path: str) -> Code:
    try:
        return read_code_file(path)
    except FileNotFoundError:
        raise ValueError(f"no such code file: {path}") from None


# What each handler returns: exit code, report inputs, report result, human lines.
_Outcome = tuple[int, dict, dict, list[str]]


def _cmd_construct(args) -> _Outcome:
    q = args.q
    s = args.s if args.s is not None else optimal_s(q).s
    code = build_length3(q, s)
    write_code_file(args.out, code)
    m, w = q % 8, size_defect(q)
    result = {"q": q, "s": s, "m": m, "w": w, "M": code.M, "out": args.out}
    line = f"wrote (3, {code.M}, {q}) code to {args.out} (s={s}, m={m}, w={w})"
    return EXIT_OK, {"q": q, "s": args.s, "out": args.out}, result, [line]


_VERIFIERS = {"fpc": is_fpc, "sc": is_sc, "ssc": is_ssc}


def _cmd_verify(args) -> _Outcome:
    if args.oracle and args.property != "ssc":
        raise ValueError("--oracle applies only to --property ssc")
    code = _load_code(args.code)
    if args.oracle:
        verdict: Verdict = is_ssc_naive(code, args.t)
    else:
        verdict = _VERIFIERS[args.property](code, args.t)
    witness = _witness_json(verdict.witness)
    result = {
        "property": args.property,
        "t": args.t,
        "oracle": args.oracle,
        "holds": verdict.holds,
        "witness": witness,
        "stats": _stats_json(verdict.stats),
    }
    inputs = {"code": args.code, "property": args.property, "t": args.t}
    line = f"{args.property} {'holds' if verdict.holds else 'fails'} at t={args.t} for {args.code}"
    if not verdict.holds:
        line += f": {json.dumps(witness, sort_keys=True)}"
    return (EXIT_OK if verdict.holds else EXIT_FAIL), inputs, result, [line]


def _cmd_trace(args) -> _Outcome:
    code = _load_code(args.code)
    feasible = parse_feasible_line(args.r)
    tracer = ssc_trace if args.algorithm == "ssc" else lacc_identify
    report = tracer(code, feasible, args.t)
    inputs = {
        "code": args.code,
        "r": format_feasible_line(feasible),
        "t": args.t,
        "algorithm": args.algorithm,
    }
    line = _trace_line(report, "identified colluders: {}")
    return (EXIT_OVERFLOW if report.overflow else EXIT_OK), inputs, _trace_json(report), [line]


def _parse_colluders(raw: str, code: Code) -> list[int]:
    try:
        labels = [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"colluders must be comma-separated integers, got {raw!r}") from None
    if not labels:
        raise ValueError("at least one colluder is required")
    indices = []
    for label in labels:
        if not 1 <= label <= code.M:
            raise ValueError(f"colluder {label} out of range 1..{code.M}")
        if label - 1 in indices:
            raise ValueError(f"colluder {label} is listed twice")
        indices.append(label - 1)
    return indices


def _cmd_simulate(args) -> _Outcome:
    if args.then_trace and 2 * args.t * args.eps >= 1:
        raise ValueError(
            f"--eps {args.eps} must be below 1/(2t) = {1 / (2 * args.t):g}"
            f" for --t {args.t}: wider bands can merge a coalition's interior"
            " averages k/t into 0 or 1"
        )
    code = _load_code(args.code)
    colluders = _parse_colluders(args.colluders, code)
    dim = args.dim if args.dim is not None else code.n
    ctx = make_context(dim, code.n, args.alpha, args.seed)
    signals = [embed(ctx, code.words[i]) for i in colluders]
    stats = correlate(ctx, averaging_attack(signals))
    feasible = threshold(stats, args.eps)
    r_line = format_feasible_line(feasible)
    inputs = {
        "code": args.code,
        "colluders": _labels(colluders),
        "dim": dim,
        "alpha": args.alpha,
        "seed": args.seed,
        "eps": args.eps,
        "then_trace": args.then_trace,
        "t": args.t,
    }
    result: dict = {
        "T": [float(v) for v in stats.values],
        "R": r_line,
        "colluders": _labels(colluders),
    }
    lines = ["T = " + " ".join(repr(float(v)) for v in stats.values), f"R = {r_line}"]
    if not args.then_trace:
        return EXIT_OK, inputs, result, lines
    report = ssc_trace(code, feasible, args.t)
    match = not report.overflow and report.colluders == frozenset(colluders)
    result["trace"] = _trace_json(report)
    result["match"] = match
    lines.append(_trace_line(report, f"recovered colluders: {{}} (match={str(match).lower()})"))
    return (EXIT_OVERFLOW if report.overflow else EXIT_OK), inputs, result, lines


def _cmd_compose(args) -> _Outcome:
    code = _load_code(args.code)
    composed = one_hot_compose(code)
    write_code_file(args.out, composed)
    result = {
        "n": composed.n,
        "M": composed.M,
        "q": composed.q,
        "source_q": code.q,
        "out": args.out,
    }
    line = f"wrote ({composed.n}, {composed.M}, 2) code to {args.out}"
    return EXIT_OK, {"code": args.code, "out": args.out}, result, [line]


def _add_json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="write the JSON run report to PATH, or to stdout when no PATH given",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="sepcode",
        description="Anti-collusion fingerprinting codes: construct, verify, attack, trace.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("construct", help="build a length-3 code and write it to a file")
    p.add_argument("--q", type=int, required=True, help="alphabet size")
    p.add_argument("--s", type=int, default=None, help="marker count (default: optimal for q)")
    p.add_argument("--out", required=True, help="output code file")
    _add_json_flag(p)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("verify", help="check a property of a code file")
    p.add_argument("code", help="code file")
    p.add_argument("--property", required=True, choices=("fpc", "sc", "ssc"))
    p.add_argument("--t", type=int, default=2, help="coalition bound (default 2)")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="use the literal exponential check (ssc only)",
    )
    _add_json_flag(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("trace", help="identify colluders from a feasible-set line")
    p.add_argument("code", help="binary code file")
    p.add_argument("--r", required=True, help="feasible set, n tokens from {0,1,*}")
    p.add_argument("--t", type=int, default=2, help="coalition bound (default 2)")
    p.add_argument("--algorithm", choices=("fpc", "ssc"), default="ssc")
    _add_json_flag(p)
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser(
        "simulate", help="embed, average, and detect; optionally chain into tracing"
    )
    p.add_argument("code", help="binary code file")
    p.add_argument("--colluders", required=True, help="1-based labels, e.g. 2,3")
    p.add_argument("--dim", type=int, default=None, help="host dimension (default: code length)")
    p.add_argument("--alpha", type=float, default=0.1, help="embedding strength")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--eps", type=float, default=1e-6, help="threshold tolerance")
    p.add_argument("--then-trace", action="store_true", help="run the tracer on the detected R")
    p.add_argument("--t", type=int, default=2, help="coalition bound for --then-trace")
    _add_json_flag(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("compose", help="one-hot compose a q-ary code into a binary one")
    p.add_argument("code", help="q-ary code file")
    p.add_argument("--out", required=True, help="output code file")
    _add_json_flag(p)
    p.set_defaults(handler=_cmd_compose)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        exit_code, inputs, result, lines = args.handler(args)
        report = {
            "command": args.command,
            "inputs": inputs,
            "result": result,
            "version": __version__,
        }
        _emit(args.json, report, lines)
        return exit_code
    except CodeFormatError as exc:
        print(f"sepcode: malformed code file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OSError) as exc:
        print(f"sepcode: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
