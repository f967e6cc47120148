"""Command-line interface.

Exit codes: 0 success, 1 validation failure (including failed verify runs),
2 malformed input or usage error, 3 bounded search found nothing.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from . import analysis, constructions, documents, langsem, verify
from .automata import Mcqfa, Pfa, is_unary, unary_values, value
from .constructions import OneStateGfaSpec, PythTriple
from .exactmath import record, unlimited_digits
from .langsem import CutpointSpec


@record
class CommandOutcome:
    exit_code: int
    report: str
    data: Optional[dict] = None


def _parse_cutpoint(text, option="--cutpoint") -> Fraction:
    if text is None:
        raise documents.DocumentError(f"missing {option}")
    return documents.parse_rational(text, option)


def _parse_triple(text: str) -> PythTriple:
    try:
        m, n = (int(part) for part in text.split(","))
        return PythTriple(m, n)
    except ValueError as e:
        raise documents.DocumentError(f"bad triple {text!r}: {e}")


def _parse_numbers(items) -> dict:
    numbers = {}
    for item in items:
        letter, sep, val = item.partition("=")
        if not sep or not letter:
            raise documents.DocumentError(f"bad letter=number pair {item!r}")
        if letter in numbers:
            raise documents.DocumentError(f"duplicate letter {letter!r} in --numbers")
        numbers[letter] = documents.parse_rational(val)
    return numbers


def _load_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise documents.DocumentError(f"cannot read {path}: {e}")


def _split_word(aut, text: str) -> list:
    if text == "":
        return []
    if "," in text:
        return text.split(",")
    if all(len(s) == 1 for s in aut.alphabet):
        return list(text)
    return [text]


def _format_value(v) -> tuple[Optional[str], float]:
    if isinstance(v, Fraction):
        return str(v), float(v)
    return None, float(v)


# command handlers

def _cmd_eval(args) -> CommandOutcome:
    aut = documents.parse_automaton(_load_file(args.file))
    if args.word is None and args.length is None:
        raise documents.DocumentError("eval needs --word or --length")
    if args.word is not None:
        word = _split_word(aut, args.word)
    else:
        if not is_unary(aut):
            raise documents.DocumentError("--length applies to unary automata only")
        word = [aut.alphabet[0]] * args.length
    exact, approx = _format_value(value(aut, word))
    report = f"value = {exact if exact is not None else approx}"
    return CommandOutcome(0, report, {"value_exact": exact, "value_float": approx})


def _cmd_enum(args) -> CommandOutcome:
    aut = documents.parse_automaton(_load_file(args.file))
    cp = CutpointSpec(_parse_cutpoint(args.cutpoint), args.mode)
    bits = langsem.enum_unary(aut, cp, args.max, eps=args.epsilon)
    return CommandOutcome(0, bits, {"bits": bits})


def emit_csv(aut, limit: int, sink) -> int:
    """Write `m,value_exact,value_float` rows for a^0 .. a^limit; the exact
    column is empty for binary64 automata.  Returns the data row count."""
    sink.write("m,value_exact,value_float\n")
    rows = 0
    for m, v in enumerate(unary_values(aut, limit)):
        exact, approx = _format_value(v)
        sink.write(f"{m},{exact if exact is not None else ''},{approx!r}\n")
        rows += 1
    return rows


def _cmd_csv(args) -> CommandOutcome:
    aut = documents.parse_automaton(_load_file(args.file))
    buf = io.StringIO()
    rows = emit_csv(aut, args.max, buf)
    return CommandOutcome(0, buf.getvalue().rstrip("\n"), {"rows": rows})


def _cmd_construct(args) -> CommandOutcome:
    if args.family == "rotation":
        if args.triple is None:
            raise documents.DocumentError("construct rotation needs --triple M,N")
        aut = constructions.rotation_automaton(_parse_triple(args.triple), args.model)
    elif args.family == "px":
        if args.x is None:
            raise documents.DocumentError("construct px needs --x P/Q")
        aut = constructions.three_state_pfa(_parse_cutpoint(args.x, "--x"))
    else:
        if args.n is None:
            raise documents.DocumentError("construct modn needs --n K")
        aut = constructions.modn_mcqfa(args.n)
    doc = documents.serialize_automaton(aut)
    return CommandOutcome(0, json.dumps(doc, indent=2), doc)


def _cmd_transform(args) -> CommandOutcome:
    aut = documents.parse_automaton(_load_file(args.file))
    if not isinstance(aut, Mcqfa):
        raise documents.DocumentError("exclusive-to-zero transforms mcqfa documents")
    lam = _parse_cutpoint(args.cutpoint)
    built = constructions.exclusive_to_zero(aut, lam)
    notice = "cutpoint 0 already is the target form; machine unchanged" if built is aut else None
    doc = documents.serialize_automaton(built)
    data = {"machine": doc}
    if notice:
        data["notice"] = notice
    report = json.dumps(doc, indent=2)
    if notice:
        report = f"# {notice}\n{report}"
    return CommandOutcome(0, report, data)


def _cmd_classify_2pfa(args) -> CommandOutcome:
    aut = documents.parse_automaton(_load_file(args.file))
    if not isinstance(aut, Pfa):
        raise documents.DocumentError("classify-2pfa needs a pfa document")
    name = constructions.classify_two_state_pfa(aut, _parse_cutpoint(args.cutpoint))
    return CommandOutcome(0, str(name), {"language": str(name)})


def _spec_from_args(args) -> OneStateGfaSpec:
    numbers = _parse_numbers(args.numbers)
    direction = "less" if args.direction == "lt" else "greater"
    mode = langsem.INCLUSIVE if getattr(args, "inclusive", False) else langsem.STRICT
    return OneStateGfaSpec(numbers, _parse_cutpoint(args.cutpoint), direction, mode)


def _cmd_decompose(args) -> CommandOutcome:
    desc = constructions.decompose_one_state(_spec_from_args(args))
    doc = documents.serialize_descriptor(desc)
    return CommandOutcome(0, json.dumps(doc, indent=2), doc)


def _cmd_build(args) -> CommandOutcome:
    desc = documents.parse_descriptor(_load_file(args.descfile))
    spec = constructions.build_one_state(desc)
    doc = documents.serialize_one_state(spec)
    return CommandOutcome(0, json.dumps(doc, indent=2), doc)


def _cmd_chomsky(args) -> CommandOutcome:
    if args.descfile is not None:
        desc = documents.parse_descriptor(_load_file(args.descfile))
        if isinstance(desc, langsem.IndicatorOnly):
            verdict = analysis.ChomskyVerdict.REGULAR
        else:
            verdict = analysis.chomsky_classify(desc.solution)
    elif args.numbers:
        verdict = analysis.chomsky_classify_gfa(_spec_from_args(args))
    else:
        raise documents.DocumentError("chomsky needs a descriptor file or --numbers")
    return CommandOutcome(0, str(verdict), {"verdict": str(verdict)})


def _cmd_separate(args) -> CommandOutcome:
    aut_a = documents.parse_automaton(_load_file(args.file_a))
    aut_b = documents.parse_automaton(_load_file(args.file_b))
    cp_a = CutpointSpec(_parse_cutpoint(args.cutpoint_a, "--cutpoint-a"), args.mode_a)
    cp_b = CutpointSpec(_parse_cutpoint(args.cutpoint_b, "--cutpoint-b"), args.mode_b)
    w = analysis.separate(aut_a, cp_a, aut_b, cp_b, args.max)
    if w is None:
        return CommandOutcome(
            3, f"no separating length up to m={args.max}", {"witness": None}
        )
    ea, fa = _format_value(w.value_a)
    eb, fb = _format_value(w.value_b)
    data = {
        "witness": {
            "m": w.m,
            "value_a_exact": ea,
            "value_a_float": fa,
            "value_b_exact": eb,
            "value_b_float": fb,
            "member_a": w.member_a,
            "member_b": w.member_b,
        }
    }
    report = (
        f"m={w.m}\n"
        f"value_a = {ea if ea is not None else fa} (member: {w.member_a})\n"
        f"value_b = {eb if eb is not None else fb} (member: {w.member_b})"
    )
    return CommandOutcome(0, report, data)


def _cmd_density(args) -> CommandOutcome:
    report = analysis.density_report(_parse_triple(args.triple), args.bins, args.max)
    lines = [f"bins={report.bins} horizon={report.horizon} misses={len(report.misses)}"]
    for i, hit in enumerate(report.first_hit):
        lines.append(f"bin {i}: {'miss' if hit is None else f'first hit k={hit}'}")
    data = {
        "bins": report.bins,
        "horizon": report.horizon,
        "first_hit": list(report.first_hit),
        "misses": list(report.misses),
    }
    return CommandOutcome(0, "\n".join(lines), data)


def _cmd_verify(args) -> CommandOutcome:
    results = verify.run_checks(args.suite)
    lines = []
    all_ok = True
    for r in results:
        ok = r.ok and r.within_budget
        all_ok = all_ok and ok
        status = "PASS" if ok else "FAIL"
        note = "" if r.within_budget else " [over budget]"
        lines.append(
            f"{status}  {r.criterion:<28} {r.elapsed:7.2f}s / {r.budget:g}s{note}  {r.detail}"
        )
    lines.append(f"{sum(1 for r in results if r.ok and r.within_budget)}/{len(results)} passed")
    data = {
        "results": [
            {
                "criterion": r.criterion,
                "suite": r.suite,
                "ok": r.ok,
                "elapsed": r.elapsed,
                "budget": r.budget,
                "within_budget": r.within_budget,
                "detail": r.detail,
            }
            for r in results
        ]
    }
    return CommandOutcome(0 if all_ok else 1, "\n".join(lines), data)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cutpoint",
        description="Simulate and classify cutpoint languages of generalized, "
        "probabilistic, and quantum finite automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        return p

    p = add("eval", _cmd_eval, "accepting value of an automaton on a word")
    p.add_argument("file")
    p.add_argument("--word", help="input word (characters, or comma-separated symbols)")
    p.add_argument("--length", type=int, help="unary input length N for a^N")

    p = add("enum", _cmd_enum, "membership bits of a^0..a^N for a cutpoint")
    p.add_argument("file")
    p.add_argument("--cutpoint", required=True)
    p.add_argument("--mode", choices=("strict", "inclusive", "exclusive"), default="strict")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=langsem.VALUE_TOL)

    p = add("csv", _cmd_csv, "value table m,value_exact,value_float")
    p.add_argument("file")
    p.add_argument("--max", type=int, required=True)

    p = add("construct", _cmd_construct, "emit a machine document")
    p.add_argument("family", choices=("rotation", "px", "modn"))
    p.add_argument("--triple", help="M,N generator of a primitive triple")
    p.add_argument("--model", choices=("gfa", "mcqfa"), default="gfa")
    p.add_argument("--x", help="parameter in (0,1/2] for the px family")
    p.add_argument("--n", type=int, help="modulus for the modn family")

    p = add("transform", _cmd_transform, "rebuild a machine with exclusive cutpoint 0")
    p.add_argument("kind", choices=("exclusive-to-zero",))
    p.add_argument("file")
    p.add_argument("--cutpoint", required=True)

    p = add("classify-2pfa", _cmd_classify_2pfa, "name a 2-state unary PFA's language")
    p.add_argument("file")
    p.add_argument("--cutpoint", required=True)

    p = add("decompose-1gfa", _cmd_decompose, "descriptor of a 1-state machine's language")
    p.add_argument("--numbers", nargs="+", required=True, metavar="LETTER=P/Q")
    p.add_argument("--cutpoint", required=True)
    p.add_argument("--direction", choices=("lt", "gt"), default="lt")
    p.add_argument("--inclusive", action="store_true")

    p = add("build-1gfa", _cmd_build, "1-state machine recognizing a descriptor's language")
    p.add_argument("descfile")

    p = add("chomsky", _cmd_chomsky, "regular / context-free / neither verdict")
    p.add_argument("descfile", nargs="?")
    p.add_argument("--numbers", nargs="+", metavar="LETTER=P/Q")
    p.add_argument("--cutpoint")
    p.add_argument("--direction", choices=("lt", "gt"), default="lt")

    p = add("separate", _cmd_separate, "least length telling two cutpoint languages apart")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--cutpoint-a", required=True)
    p.add_argument("--cutpoint-b", required=True)
    p.add_argument("--mode-a", choices=("strict", "inclusive", "exclusive"), default="strict")
    p.add_argument("--mode-b", choices=("strict", "inclusive", "exclusive"), default="strict")
    p.add_argument("--max", type=int, required=True)

    p = add("density", _cmd_density, "first-hit report over bins of [-1, 1]")
    p.add_argument("--triple", required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--max", type=int, required=True)

    p = add("verify", _cmd_verify, "run the verification suites")
    p.add_argument(
        "--suite", choices=verify.SUITES, default="all"
    )

    return parser


#: numeric options and the rule each must meet (counts cannot be infinite)
NUMBER_RULES = {"length": "nonnegative", "max": "nonnegative", "epsilon": "finite and nonnegative"}


@unlimited_digits
def run(argv) -> CommandOutcome:
    """Parse and execute; never raises on bad input, returning the exit code
    and report instead (the surface the tests drive).  Exact values have no
    size limit (:func:`exactmath.unlimited_digits`)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return CommandOutcome(2 if e.code else 0, "")
    try:
        for flag, rule in NUMBER_RULES.items():
            x = getattr(args, flag, None)
            if x is not None and not 0 <= x < math.inf:
                raise documents.DocumentError(f"--{flag} must be {rule}")
        outcome = args.handler(args)
    except documents.ValidationFailure as e:
        lines = ["validation failed:"] + [f"  - {v}" for v in e.violations]
        return CommandOutcome(1, "\n".join(lines), {"violations": e.violations})
    except (documents.DocumentError, ValueError) as e:
        return CommandOutcome(2, f"error: {e}", {"error": str(e)})
    if getattr(args, "json", False) and outcome.data is not None:
        outcome = CommandOutcome(
            outcome.exit_code, json.dumps(outcome.data, indent=2), outcome.data
        )
    return outcome


def main() -> None:
    outcome = run(sys.argv[1:])
    if outcome.report:
        print(outcome.report)
    sys.exit(outcome.exit_code)


if __name__ == "__main__":
    main()
