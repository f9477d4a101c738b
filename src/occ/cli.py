"""Batch front end: task files, named check suites, one-shot computations.

Exit status: 0 when every embedded check passes, 1 when a check fails, a
computation raises a CalculusError or its result is too long to print, 2
when the input cannot be read (bad arguments, malformed task files, law
specs, names, roots or expressions).
`main` is the only place that maps exceptions to statuses.  `pbf` is a
one-action task: it runs through the same `_run_task` as `run`.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .bundles import SplitBundle, whitney_check
from .exprs import MAX_DIGITS, NAME, ExprError, evaluate
from .fgl import KINDS, custom_law, make_law
from .projective import (
    ProjBundleRing,
    geometric_fgl_check,
    pb_relation_check,
    tower_classes,
)
from .oracles import k_chi_oracle
from .reports import CheckItem, Report, merge_reports
from .series import CalculusError, Context, Var
from .specialization import conner_floyd_check, grr_check, k_euler_characteristic

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

SUITES = ("fgl-axioms", "whitney", "pbf", "cf", "grr", "fgl-theorem")

# Size limits of the command line and of task files; a request above them
# exits 2.  The README lists the time of the slowest request at the limits.
MAX_TRUNCATION = 10
MAX_DEPTH = 11
MAX_RANK = 10
MAX_ROOTS = 4  # the rank of a task bundle or of `pbf --roots`
MAX_VARIABLES = 4  # the class variables of a task or of `pbf`
# An integer field of a task has at most MAX_DIGITS digits, a custom-law
# coefficient at most MAX_LAW_DIGITS in its numerator and denominator: at
# N = 10 a coefficient of an n-series multiplies about 10 such k and 9 such
# law coefficients, which stays below Python's 4300-digit limit for text.
MAX_LAW_DIGITS = 100

_RESERVED = {"F", "inv", "t"}
# a custom-law coefficient is any Fraction text whose exponent has at most
# three digits: Fraction builds 10**exponent before any size check
_LONG_EXPONENT = re.compile(r"[eE][+-]?[\d_]{4}")


class TaskError(Exception):
    """Invalid task file or command arguments; maps to exit status 2."""


# -- output helpers ---------------------------------------------------------------


def _emit_text(lines):
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_json(obj):
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _emit_report(rep: Report, as_json: bool) -> int:
    if as_json:
        _emit_json(rep.to_json_obj())
    else:
        _emit_text(rep.lines())
    return EXIT_OK if rep.passed else EXIT_FAIL


# -- task files -------------------------------------------------------------------


def _load_task(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise TaskError(f"cannot read task file: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TaskError(
            f"task parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:  # an over-long integer, deep nesting
        raise TaskError(f"task parse error: {exc}") from None
    if not isinstance(obj, dict):
        raise TaskError("task file must hold a JSON object")
    return obj


def _build_law(spec, truncation):
    if isinstance(spec, str):
        if spec not in KINDS:
            raise TaskError(f"unknown law {spec!r} (choose from {', '.join(KINDS)})")
        return make_law(spec, truncation)
    if isinstance(spec, dict) and isinstance(spec.get("coefficients"), dict):
        terms = []
        for key, val in spec["coefficients"].items():
            try:
                i, j = (int(part) for part in key.split(","))
                if _LONG_EXPONENT.search(str(val)):
                    raise ValueError
                c = Fraction(str(val))
            except (ValueError, ZeroDivisionError):
                raise TaskError(f"bad law coefficient {key!r}: {val!r}") from None
            if i < 0 or j < 0:
                raise TaskError(f"bad law coefficient exponents {key!r}")
            if max(abs(c.numerator), c.denominator) >= 10**MAX_LAW_DIGITS:
                raise TaskError(f"law coefficient {key!r} has more than {MAX_LAW_DIGITS} digits")
            terms.append(((i, j), c))  # a list: two spellings of one key add up
        ctx = Context((Var("x", 1, True), Var("y", 1, True)), truncation)
        return custom_law(ctx.series(terms))
    raise TaskError('law must be a name or {"coefficients": {"i,j": "p/q", ...}}')


_ACTION_FIELDS = {
    "coefficient": ("i", "j"),
    "expr": ("expr",),
    "check-axioms": (),
    "inverse": (),
    "n-series": ("k",),
    "chern": ("bundle", "k"),
    "euler": ("bundle",),
    "total-chern": ("bundle",),
    "reduce": ("bundle", "element"),
    "pushforward": ("bundle", "element"),
}


def _validate_task(task):
    truncation = task.get("truncation", 6)
    error = _range_error(truncation, 1, MAX_TRUNCATION)
    if error:
        raise TaskError(f"truncation {error}")
    variables = task.get("variables", [])
    if not isinstance(variables, list):
        raise TaskError("variables must be a list of distinct names")
    for v in variables:
        if not isinstance(v, str) or not NAME.fullmatch(v) or v in _RESERVED:
            raise TaskError(f"bad variable name {v!r}")
    if len(set(variables)) != len(variables):
        raise TaskError("variables must be a list of distinct names")
    if len(variables) > MAX_VARIABLES:
        raise TaskError(f"{len(variables)} variables, more than {MAX_VARIABLES}")
    bundles = task.get("bundles", {})
    if not isinstance(bundles, dict):
        raise TaskError("bundles must map names to root lists")
    for name, roots in bundles.items():
        if not NAME.fullmatch(name):
            raise TaskError(f"bad bundle name {name!r}")
        if not isinstance(roots, list) or not roots or not all(isinstance(r, str) for r in roots):
            raise TaskError(f"bundle {name!r} must list root expressions")
        if len(roots) > MAX_ROOTS:
            raise TaskError(f"bundle {name!r} has {len(roots)} roots, more than {MAX_ROOTS}")
    actions = task.get("actions")
    if not isinstance(actions, list) or not actions:
        raise TaskError("actions must be a non-empty list")
    for idx, act in enumerate(actions, 1):
        if not isinstance(act, dict) or "op" not in act:
            raise TaskError(f"action {idx} must be an object with an \"op\" field")
        op = act["op"]
        if not isinstance(op, str) or op not in _ACTION_FIELDS:
            raise TaskError(f"action {idx}: unknown op {op!r}")
        for fieldname in _ACTION_FIELDS[op]:
            if fieldname not in act:
                raise TaskError(f"action {idx} ({op}): missing field {fieldname!r}")
            kind = int if fieldname in ("i", "j", "k") else str
            if type(act[fieldname]) is not kind:
                what = "an integer" if kind is int else "a string"
                raise TaskError(f"action {idx} ({op}): field {fieldname!r} must be {what}")
            if kind is int and abs(act[fieldname]) >= 10**MAX_DIGITS:
                raise TaskError(
                    f"action {idx} ({op}): field {fieldname!r} has more than {MAX_DIGITS} digits"
                )
        if op == "chern" and act["k"] < 0:
            raise TaskError(f"action {idx} (chern): Chern index must be non-negative")
        if "bundle" in _ACTION_FIELDS[op] and act["bundle"] not in bundles:
            raise TaskError(f"action {idx} ({op}): unknown bundle {act['bundle']!r}")
    output = task.get("output", "text")
    if output not in ("text", "json"):
        raise TaskError('output must be "text" or "json"')
    return truncation, variables, bundles, actions, output


def _action_result(act, law, ctx, env, bundles, rings):
    op = act["op"]
    if op == "coefficient":
        return law.coefficient(act["i"], act["j"])
    if op == "expr":
        return evaluate(act["expr"], env, law, ctx)
    if op == "check-axioms":
        return law.check_axioms()
    if op == "inverse":
        return law.formal_inverse()
    if op == "n-series":
        return law.formal_sum_n(act["k"])
    if op == "chern":
        return bundles[act["bundle"]].chern(act["k"])
    if op == "euler":
        return bundles[act["bundle"]].euler()
    if op == "total-chern":
        return bundles[act["bundle"]].total_chern()
    # reduce / pushforward
    name = act["bundle"]
    if name not in rings:
        rings[name] = ProjBundleRing(bundles[name], "t")
    ring = rings[name]
    ring_env = {k: ring.lift(v) for k, v in env.items()}
    ring_env["t"] = ring.var("t")
    element = evaluate(act["element"], ring_env, law, ring.context)
    if op == "reduce":
        return ring.reduce(element)
    return ring.pushforward(element)


def _check_printable(series):
    """Raise CalculusError when a coefficient has more digits than Python turns into text.

    Numbers inside a computation are not bounded, and Chern classes of roots
    with large denominators take their lcm; the limit is the interpreter's.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # none before 3.10.7
    longest = max((max(abs(c.numerator), c.denominator) for c in series.terms.values()), default=0)
    # 8**limit < 10**limit: a number of at most 3 * limit bits always prints
    if limit and longest.bit_length() > 3 * limit and longest >= 10**limit:
        raise CalculusError(f"a coefficient has more than {limit} digits to print")


def _run_task(task):
    """Validate, build and execute a task: the one path from input to a computation.

    Returns the output format and one result per action.  Bad input raises
    TaskError or ExprError; a computation's CalculusError names its action.
    """
    truncation, variables, bundle_decls, actions, output = _validate_task(task)
    law = _build_law(task.get("law", "additive"), truncation)
    for v in variables:
        if any(g.name == v for g in law.generators):
            raise TaskError(f"variable {v!r} is a coefficient of the {law.kind} law")
    ctx = law.geometry_context(variables)
    env = {v: ctx.var(v) for v in variables}
    try:
        bundles = {
            name: SplitBundle(law, [evaluate(r, env, law, ctx) for r in roots])
            for name, roots in bundle_decls.items()
        }
    except CalculusError as exc:
        raise TaskError(f"bundle declaration: {exc}") from None

    rings = {}
    results = []
    for idx, act in enumerate(actions, 1):
        try:
            result = _action_result(act, law, ctx, env, bundles, rings)
            if not isinstance(result, Report):
                _check_printable(result)
            results.append(result)
        except CalculusError as exc:  # re-raised as is, so `main` still sees its class
            exc.args = (f"action {idx} ({act['op']}): {exc}",)
            raise
    return output, results


def cmd_run(args) -> int:
    task = _load_task(args.taskfile)
    output, results = _run_task(task)
    all_pass = all(res.passed for res in results if isinstance(res, Report))
    if output == "json":
        payload = []
        for idx, (act, res) in enumerate(zip(task["actions"], results), 1):
            entry = {"index": idx, "op": act["op"]}
            if isinstance(res, Report):
                entry["report"] = res.to_json_obj()
            else:
                entry["series"] = res.to_json_obj()
            payload.append(entry)
        _emit_json({"passed": all_pass, "results": payload})
    else:
        lines = []
        for res in results:
            if isinstance(res, Report):
                lines.extend(res.lines())
            else:
                lines.append(str(res))
        _emit_text(lines)
    return EXIT_OK if all_pass else EXIT_FAIL


# -- named suites -------------------------------------------------------------------


def build_suite(name, truncation) -> Report:
    """The named preset suites behind `check`; deterministic by construction."""
    if name == "fgl-axioms":
        reps = [make_law(kind, truncation).check_axioms() for kind in KINDS]
        return merge_reports(f"check fgl-axioms[N={truncation}]", reps)
    if name == "whitney":
        return whitney_check(truncation, cases=50, seed=0)
    if name == "pbf":
        return pb_relation_check(truncation)
    if name == "cf":
        return conner_floyd_check(truncation, seed=0)
    if name == "grr":
        reps = [grr_check(r, k) for r in (2, 3) for k in range(5)]
        return merge_reports("check grr[r=2..3, k=0..4]", reps)
    if name == "fgl-theorem":
        # the universal law runs one order lower (n_univ, printed in the header)
        n_univ = max(3, truncation - 1)
        reps = [
            geometric_fgl_check(make_law("additive", truncation)),
            geometric_fgl_check(make_law("multiplicative", truncation)),
            geometric_fgl_check(make_law("universal", n_univ)),
        ]
        return merge_reports(
            f"check fgl-theorem[N={truncation}, universal N={n_univ}]", reps
        )
    raise TaskError(f"unknown suite {name!r}")


def cmd_check(args) -> int:
    return _emit_report(build_suite(args.suite, args.trunc), args.json)


def cmd_grr(args) -> int:
    return _emit_report(grr_check(args.r, args.k), args.json)


def cmd_chi(args) -> int:
    oracle = k_chi_oracle(args.r, args.k)
    actual = k_euler_characteristic(args.r, args.k)
    item = CheckItem(
        f"chi[r={args.r},k={args.k}]",
        actual == oracle,
        f"chi {actual}, oracle {oracle}",
        str(oracle),
        str(actual),
    )
    return _emit_report(Report(f"chi[r={args.r}, k={args.k}]", (item,)), args.json)


def cmd_cf(args) -> int:
    return _emit_report(conner_floyd_check(args.trunc, args.seed), args.json)


def cmd_fglcheck(args) -> int:
    trunc = args.trunc if args.trunc is not None else (5 if args.law == "universal" else 6)
    return _emit_report(geometric_fgl_check(make_law(args.law, trunc)), args.json)


def cmd_tower(args) -> int:
    classes = tower_classes(make_law(args.law, args.trunc), args.depth)
    if args.json:
        _emit_json({"classes": [c.to_json_obj() for c in classes]})
    else:
        _emit_text([f"P{i}: {c}" for i, c in enumerate(classes)])
    return EXIT_OK


def _split_csv(text):
    """Split on commas outside parentheses, so F(a,b) stays whole."""
    parts = []
    depth = 0
    buf = []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(buf))
            buf = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        buf.append(ch)
    parts.append("".join(buf))
    return [p.strip() for p in parts if p.strip()]


def cmd_pbf(args) -> int:
    """A one-action task: reduce or push forward `--element` on P(E), E = `--roots`."""
    names = _split_csv(args.vars) if args.vars else list(dict.fromkeys(
        tok for tok in NAME.findall(args.roots + " " + args.element)
        if tok not in _RESERVED
    ))
    task = {
        "law": args.law,
        "truncation": args.trunc,
        "variables": names,
        "bundles": {"E": _split_csv(args.roots)},
        "actions": [{"op": args.action, "bundle": "E", "element": args.element}],
    }
    _, (result,) = _run_task(task)
    if args.json:
        _emit_json(result.to_json_obj())
    else:
        _emit_text([str(result)])
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------------


def _range_error(value, low, high):
    """Why `value` is no integer from `low` to `high`, or "": for `_int_in` and task files."""
    if type(value) is int and low <= value <= high:
        return ""
    return f"must be an integer from {low} to {high}, got {value!r}"


def _int_in(low, high):
    """An argparse type for integers from `low` to `high`; anything else exits 2."""

    def integer(text):
        value = int(text)
        error = _range_error(value, low, high)
        if error:
            raise argparse.ArgumentTypeError(error)
        return value

    return integer


def _digits_int(text):
    """An argparse type for integers of at most MAX_DIGITS digits; anything else exits 2."""
    value = int(text)
    if abs(value) >= 10**MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"must have at most {MAX_DIGITS} digits")
    return value


def build_parser() -> argparse.ArgumentParser:
    trunc = _int_in(1, MAX_TRUNCATION)
    trunc_help = f"truncation order 1..{MAX_TRUNCATION} (default 6)"
    parser = argparse.ArgumentParser(
        prog="occ",
        description="Exact Chern-class and pushforward calculus over formal group laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a JSON task file")
    p.add_argument("taskfile")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("check", help="run a named identity suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--trunc", type=trunc, default=6,
                   help=trunc_help + "; grr runs at fixed orders and ignores it")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("grr", help="Riemann-Roch check on P^(r-1) for O(k)")
    p.add_argument("r", type=_int_in(2, MAX_RANK), help=f"rank 2..{MAX_RANK}")
    p.add_argument("k", type=_digits_int, help=f"at most {MAX_DIGITS} digits")
    p.set_defaults(func=cmd_grr)

    p = sub.add_parser("chi", help="K-theory Euler characteristic vs the binomial oracle")
    p.add_argument("r", type=_int_in(1, MAX_RANK), help=f"rank 1..{MAX_RANK}")
    p.add_argument("k", type=_digits_int, help=f"at most {MAX_DIGITS} digits")
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("cf", help="Conner-Floyd specialization battery")
    p.add_argument("--trunc", type=trunc, default=6, help=trunc_help)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("fglcheck", help="geometric formal-group-law identity")
    p.add_argument("--law", choices=KINDS, default="universal")
    p.add_argument(
        "--trunc",
        type=trunc,
        default=None,
        help=f"truncation order 1..{MAX_TRUNCATION} (default 5 for universal, 6 otherwise)",
    )
    p.set_defaults(func=cmd_fglcheck)

    p = sub.add_parser("tower", help="classes of the standard projective-line tower")
    p.add_argument("--law", choices=KINDS, default="universal")
    p.add_argument("--depth", type=_int_in(0, MAX_DEPTH), required=True,
                   help=f"depth 0..{MAX_DEPTH}")
    p.add_argument("--trunc", type=trunc, default=6, help=trunc_help)
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("pbf", help="reduce or push forward a t-polynomial on P(E)")
    p.add_argument("--law", choices=KINDS, default="additive")
    p.add_argument("--trunc", type=trunc, default=6, help=trunc_help)
    p.add_argument("--roots", required=True, help="comma-separated root expressions")
    p.add_argument("--element", required=True, help="a t-polynomial expression")
    p.add_argument("--action", choices=("reduce", "pushforward"), required=True)
    p.add_argument("--vars", default="", help="declare class variables (default: inferred)")
    p.set_defaults(func=cmd_pbf)

    # every command but `run`; last, as usage lines (also those of usage errors) show it
    for name, p in sub.choices.items():
        if name != "run":
            p.add_argument("--json", action="store_true", help="emit JSON")
    return parser


_parser = functools.cache(build_parser)  # one parser per process, built on first use


def main(argv=None) -> int:
    """Run one command; the only place where an exception becomes an exit status."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (TaskError, ExprError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except CalculusError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
