"""Op runners and oracles for the occbench workloads.

`run(op)` is the timed part and calls only the public API of `occ`.
`canonical(out)` turns an output into plain data for the digest.
`verify(i, outputs)` runs after the op list, untimed, and checks op i
against an oracle that does not share the code path it checks: binomials,
closed forms, evaluation of generator polynomials in plain Fractions, a
second algorithm, or the same question at truncation N+1.

An op fails when it raises, exits with the wrong status, or its oracle
disagrees.  A failure that matches a defect in DEFECTS is reported with that
defect's id; any other failure makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from fractions import Fraction
from math import comb, factorial

import occ
import occ.cli  # noqa: F401  (loads the submodule for occ.cli.main)

# Defects of the program that the seeded inputs hit on purpose: the
# workloads keep these inputs so that a fix shows as fewer failed ops.
DEFECTS = {
    "D1": "pushforward of an element with t-degree >= rank >= 2 loses terms in its top rank-1 weights",
    "D2": 'a non-integer "k", "i" or "j" in a task file escapes occ.cli.main as an exception instead of exit 2',
    "D3": "check --trunc 0 and chi 0 k exit 1 (check grr --trunc 0, which ignores --trunc, exits 0) instead of the usage status 2",
    "D4": "check cf --trunc 3 fails tower-P3, a tower level that needs generator m3, absent from the N=3 universal law",
    "D5": "tower --depth -1 prints nothing and exits 0 instead of 2",
}

_CLI_DEFECTS = {
    "malformed:non-integer-k": "D2",
    "malformed:trunc-0": "D3",
    "malformed:grr-trunc-0": "D3",
    "malformed:chi-r0": "D3",
    "malformed:tower-negative-depth": "D5",
    "check:cf:3": "D4",
}


def verdict(ok, detail="", defect=None):
    return {"ok": ok, "detail": detail, "defect": None if ok else defect}


# -- series as plain data -------------------------------------------------------------


def terms_of(s):
    """{((name, exp), ...): Fraction} for a series, by variable name."""
    names = s.context.names
    return {tuple((n, e) for n, e in zip(names, m) if e): Fraction(c) for m, c in s.terms.items()}


def canon_series(s):
    return sorted([[list(k) for k in mono], str(c)] for mono, c in terms_of(s).items())


def weights_of(ctx):
    return {v.name: v.degree for v in ctx.variables if v.nilpotent}


def restrict(terms, weights, bound, keep_names):
    """Terms of weight <= bound whose variables all lie in keep_names."""
    return {
        mono: c
        for mono, c in terms.items()
        if sum(weights.get(n, 0) * e for n, e in mono) <= bound and all(n in keep_names for n, _ in mono)
    }


def first_diff(a, b):
    for mono in sorted(set(a) | set(b)):
        if a.get(mono, 0) != b.get(mono, 0):
            return mono, a.get(mono, 0), b.get(mono, 0)
    return None


def build_root(law, ctx, tree):
    if tree[0] == "var":
        return ctx.var(tree[1])
    if tree[0] == "inv":
        return law.inverse_at(build_root(law, ctx, tree[1]))
    return law.apply(build_root(law, ctx, tree[1]), build_root(law, ctx, tree[2]))


def build_element(ctx, terms):
    return ctx.series([(mono, Fraction(num, den)) for num, den, mono in terms])


def evaluate_generators(terms, value):
    """A series in the generators m_i only, evaluated at m_i = value(i)."""
    total = Fraction(0)
    for mono, c in terms.items():
        for name, e in mono:
            c *= value(int(name[1:])) ** e
        total += c
    return total


# -- tower --------------------------------------------------------------------------------


class TowerRunner:
    def __init__(self, spec, laws):
        self.ops = spec["ops"]
        self.laws = laws

    def run(self, op):
        law = self.laws[tuple(op["law"])]
        if op["kind"] == "tower":
            return occ.tower_classes(law, op["depth"])
        ctx = law.geometry_context(op["vars"])
        return occ.class_of_proj_line(law, build_root(law, ctx, op["line"]))

    def canonical(self, out):
        return [canon_series(c) for c in out] if isinstance(out, list) else canon_series(out)

    def verify(self, i, outputs):
        op = self.ops[i]
        kind, n = op["law"]
        out = outputs[i]
        if op["kind"] == "cpl":
            return self._verify_line(op, out)
        classes = [terms_of(c) for c in out]
        if kind == "universal":
            # [P_k] has degree -k and may involve m_k; the law at truncation N
            # carries m_1..m_{N-1}, so the multiplicative value 1 is only
            # claimed for k < N.  Levels k >= N are checked against the law
            # at N+1 with m_N = 0 when the workload has that tower.
            for k, c in enumerate(classes):
                at_zero = evaluate_generators(c, lambda j: Fraction(0))
                if at_zero != (1 if k == 0 else 0):
                    return verdict(False, f"P{k} at m_i=0 is {at_zero}")
                if k < n:
                    at_mult = evaluate_generators(c, lambda j: Fraction(1, j + 1))
                    if at_mult != 1:
                        return verdict(False, f"P{k} at m_i=1/(i+1) is {at_mult}")
            for j, other in enumerate(self.ops):
                if other["kind"] == "tower" and other["law"] == ["universal", n + 1] and other["depth"] == op["depth"]:
                    keep = {f"m{g}" for g in range(1, n)}
                    for k, (c, hi) in enumerate(zip(classes, outputs[j])):
                        d = first_diff(c, restrict(terms_of(hi), {}, 0, keep))
                        if d is not None:
                            return verdict(False, f"P{k} differs from N={n + 1} with m{n}=0 at {d[0]}")
            return verdict(True)
        expected = [1] + [1 if kind == "multiplicative" else 0] * (len(classes) - 1)
        for k, (c, e) in enumerate(zip(classes, expected)):
            if c != ({(): Fraction(e)} if e else {}):
                return verdict(False, f"P{k} is not {e}")
        return verdict(True)

    def _verify_line(self, op, out):
        law = self.laws[tuple(op["law"])]
        ctx = law.geometry_context(op["vars"])
        u = build_root(law, ctx, op["line"])
        got = terms_of(out)
        ring = occ.ProjBundleRing(occ.SplitBundle(law, [u, ctx.zero()]), "t")
        refs = {
            "residue pushforward": terms_of(ring.pushforward(ring.context.one())),
            "p1 formula": terms_of(occ.pushforward_p1_formula(law, u)),
        }
        closed = {"additive": {}, "multiplicative": {(): Fraction(1)}}
        if law.kind in closed:
            refs["closed form"] = closed[law.kind]
        for name, ref in refs.items():
            d = first_diff(got, ref)
            if d is not None:
                return verdict(False, f"ratio identity differs from {name} at {d[0]}")
        return verdict(True)


# -- pushforward -----------------------------------------------------------------------------


class PushforwardRunner:
    def __init__(self, spec, laws):
        self.ops = spec["ops"]
        self.rings_spec = spec["rings"]
        self.laws = laws
        self.rings = {}
        self.upper = {}
        self.upper_laws = {}

    def _ring(self, idx, law):
        spec = self.rings_spec[idx]
        ctx = law.geometry_context(spec["vars"])
        roots = [build_root(law, ctx, tree) for tree in spec["roots"]]
        return occ.ProjBundleRing(occ.SplitBundle(law, roots), "t")

    def run(self, op):
        idx = op["ring"]
        ring = self.rings.get(idx)
        if ring is None:
            ring = self.rings[idx] = self._ring(idx, self.laws[tuple(self.rings_spec[idx]["law"])])
        element = build_element(ring.context, self.rings_spec[idx]["elements"][op["element"]])
        return ring.pushforward(element)

    def canonical(self, out):
        return canon_series(out)

    def verify(self, i, outputs):
        op = self.ops[i]
        spec = self.rings_spec[op["ring"]]
        kind, n = spec["law"]
        ring = self.rings[op["ring"]]
        r = ring.rank
        out = outputs[i]
        b = build_element(ring.context, spec["elements"][op["element"]])
        tdeg = max((m[-1] for m in b.terms), default=0)
        base = ring.parent_context
        weights = weights_of(base)
        names = set(base.names)

        # projection formula; the product upstairs is exact through weight
        # N and the pushforward lowers weight by r-1
        a = build_element(base, spec["base"])
        lhs = terms_of(ring.pushforward(ring.lift(a) * b))
        rhs = terms_of(a * out)
        exact = n - r + 1
        d = first_diff(restrict(lhs, weights, exact, names), restrict(rhs, weights, exact, names))
        if d is not None:
            return verdict(False, f"projection formula differs at {d[0]}")

        # the same pushforward at N+1, restricted to weight <= N; a universal
        # law at N+1 has the extra generator m_N, which the law at N sets to 0
        upper = self.upper.get(op["ring"])
        if upper is None:
            law_hi = self.upper_laws.get((kind, n + 1))
            if law_hi is None:
                law_hi = self.upper_laws[(kind, n + 1)] = occ.make_law(kind, n + 1)
            upper = self.upper[op["ring"]] = self._ring(op["ring"], law_hi)
        # push the same element: the terms of b above weight N were cut at N
        hi = upper.pushforward(upper.context.series([(dict(m), c) for m, c in terms_of(b).items()]))
        got = terms_of(out)
        want = restrict(terms_of(hi), weights, n, names)
        diffs = [m for m in set(got) | set(want) if got.get(m, 0) != want.get(m, 0)]
        if not diffs:
            return verdict(True)
        top = all(exact < sum(weights.get(x, 0) * e for x, e in m) <= n for m in diffs)
        defect = "D1" if r >= 2 and tdeg >= r and top else None
        first = first_diff(got, want)
        return verdict(False, f"N={n} result differs from N={n + 1} at {first[0]} ({len(diffs)} terms)", defect)


# -- cli ------------------------------------------------------------------------------------


class CliRunner:
    def __init__(self, spec, laws):
        self.ops = spec["ops"]

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        error = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = occ.cli.main(list(op["argv"]))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception as exc:  # escaping main is a failed op, not a harness crash
            code, error = None, f"{type(exc).__name__}: {exc}"
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}

    def canonical(self, out):
        return out

    def verify(self, i, outputs):
        op = self.ops[i]
        res = verdict(*self._check(op["expect"], outputs[i]))
        if not res["ok"]:
            res["defect"] = _CLI_DEFECTS.get(op["case"])
        return res

    def _check(self, expect, out):
        code, text = out["code"], out["stdout"]
        if out["error"]:
            return False, f"raised {out['error']}"
        want = expect.get("code", 0)
        if code != want:
            return False, f"exit status {code}, expected {want}"
        oracle = expect["oracle"]
        if oracle == "exit":
            return True, ""
        if oracle == "report":
            return _report_passed(text), "report did not pass"
        if oracle == "tower":
            got = _tower_values(text)
            one = "1" if expect["law"] == "multiplicative" else "0"
            want = ["1"] + [one] * expect["depth"]
            return got == want, f"classes {got}, expected {want}"
        if oracle == "chi":
            want = _chi(expect["r"], expect["k"])
            got = _report_values(text, "chi")
            return _report_passed(text) and got == [want], f"chi {got}, expected {want}"
        if oracle == "grr":
            want = _chi(expect["r"], expect["k"])
            got = _report_values(text, "grr")
            return _report_passed(text) and got == [want, want], f"values {got}, expected {want}"
        if oracle == "run":
            for entry in expect["nseries"]:
                got = _run_series(text, expect["output"], entry["index"])
                want = _n_series(expect["law"], entry["k"], expect["truncation"])
                if got != want:
                    return False, f"n-series k={entry['k']} is {got}, expected {want}"
            return True, ""
        raise ValueError(f"unknown oracle {oracle!r}")


def _chi(r, k):
    """chi(P^(r-1), O(k)) = binomial(k+r-1, r-1) as a polynomial in k."""
    num = 1
    for j in range(1, r):
        num *= k + j
    return Fraction(num, factorial(r - 1))


def _n_series(law, k, n):
    """[k](x): k*x additively, 1-(1-x)^k multiplicatively; {exponent: coefficient}."""
    if law == "additive":
        return {1: Fraction(k)}
    return {j: Fraction((-1) ** (j + 1) * comb(k, j)) for j in range(1, min(k, n) + 1)}


def _report_passed(text):
    if text.lstrip().startswith("{"):
        return json.loads(text)["passed"] is True
    return text.rstrip().splitlines()[-1].startswith("OK (")


def _report_values(text, kind):
    """The computed values a chi or grr report prints, in item order."""
    if text.lstrip().startswith("{"):
        items = json.loads(text)["items"]
        picked = items[:1] if kind == "chi" else items[:2]
        return [Fraction(i["actual"]) for i in picked]
    pattern = r": chi (\S+), oracle" if kind == "chi" else r": (?:pushforward|chi) (\S+), oracle"
    return [Fraction(v) for v in re.findall(pattern, text)]


def _tower_values(text):
    if text.lstrip().startswith("{"):
        out = []
        for cls in json.loads(text)["classes"]:
            terms = cls["terms"]
            if not terms:
                out.append("0")
            elif len(terms) == 1 and not terms[0]["monomial"]:
                out.append(terms[0]["coeff"])
            else:
                out.append(json.dumps(terms))
        return out
    return [line.split(": ", 1)[1] for line in text.splitlines()]


def _run_series(text, output, index):
    """The n-series printed for action `index` of a task, as {exponent: coefficient}."""
    if output == "json":
        entry = json.loads(text)["results"][index - 1]
        return {t["monomial"].get("x", 0): Fraction(t["coeff"]) for t in entry["series"]["terms"]}
    line = text.splitlines()[index - 1]
    out = {}
    for piece in line.replace(" - ", " + -").split(" + "):
        sign = -1 if piece.startswith("-") else 1
        body = piece.lstrip("-")
        if "x" not in body:
            out[0] = sign * Fraction(body)
            continue
        *coef, xpart = body.split("*")
        out[int(xpart[2:]) if xpart.startswith("x^") else 1] = sign * (Fraction(coef[0]) if coef else 1)
    return out


RUNNERS = {"tower": TowerRunner, "pushforward": PushforwardRunner, "cli": CliRunner}
