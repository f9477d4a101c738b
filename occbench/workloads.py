"""Seeded inputs for the three occbench workloads.

Nothing here imports `occ`: the generator runs before set-up is timed and
hands the program only plain data (law names, root expression trees, term
lists, argv lists and task-file texts).

Each workload has a fixed shape: the number of ops and every parameter that
sets an op's cost by a large factor (law, truncation, rank, depth, number of
variables, root, action, expression and malformed-request kinds, and the
multiset of n-series k, which roots of a bundle share a variable, element
denominators and monomial shapes) are the same for every seed; the seed
draws which variable plays which part, the element numerators, light
parameters (k of chi and grr), which task gets which n-series k, output
flags and the op order.  That keeps the op count and the cost profile of a run
steady across seeds, so run-to-run spread measures the program and not the
draw.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("tower", "pushforward", "cli")
LAWS = ("additive", "multiplicative", "universal")


# -- shared pieces ------------------------------------------------------------


def root_tree(order, style):
    """A root as an expression tree; `style` 0..3 picks a, F(a, b), inv(a)
    or F(a, inv(b)), where a and b are the first and last of `order`.

    Callers draw `order`, a seeded ordering of the variables, once per
    bundle: the roots of a bundle then share their variables the same way
    for every seed (which roots share one sets the cost of a ring), and the
    seed only decides which variable is a."""
    a, b = order[0], order[-1]
    style %= 4
    if style == 1:
        return ["F", ["var", a], ["var", b]]
    if style == 2:
        return ["inv", ["var", a]]
    if style == 3:
        return ["F", ["var", a], ["inv", ["var", b]]]
    return ["var", a]


def root_text(tree):
    """The expression-language spelling of a root tree."""
    if tree[0] == "var":
        return tree[1]
    if tree[0] == "inv":
        return f"inv({root_text(tree[1])})"
    return f"F({root_text(tree[1])}, {root_text(tree[2])})"


# denominators of an element's three terms, by element index: the share of
# rational coefficients (and so the cost of a small op) is the same for
# every seed
_DENOMINATORS = ((1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2))


def random_element(rng, names, tdeg, j, t="t"):
    """Terms [num, den, {name: exp}] of a polynomial with t-degree exactly `tdeg`.

    Three terms of base degree 1, 2 and 0 with t-exponents tdeg, tdeg-1 and
    tdeg//2 (so they never cancel).  The element index `j` fixes the
    denominators and whether the degree-2 term is a square or (over two
    variables) a product of both; the seed draws the numerators and which
    variable the degree-1 term and the square take.
    """
    a, b = rng.choice(names), rng.choice(names)
    monos = ({a: 1}, {b: 2} if j % 2 == 0 or len(names) == 1 else {names[0]: 1, names[1]: 1}, {})
    terms = []
    for mono, e, den in zip(monos, (tdeg, max(tdeg - 1, 0), tdeg // 2), _DENOMINATORS[j % len(_DENOMINATORS)]):
        if e:
            mono = {**mono, t: e}
        nums = (-3, -2, -1, 1, 2, 3) if den == 1 else (-3, -1, 1, 3)  # n/2 stays a fraction
        terms.append([rng.choice(nums), den, mono])
    return terms


def element_text(terms):
    pieces = []
    for num, den, mono in terms:
        factors = [str(num) if den == 1 else f"{num}/{den}"]
        factors += [n if e == 1 else f"{n}^{e}" for n, e in mono.items()]
        pieces.append("(" + "*".join(factors) + ")")
    return " + ".join(pieces)


# -- tower ----------------------------------------------------------------------

# (op kind, law, truncation, depth): the universal towers carry the weight;
# the additive and multiplicative ops ride along on the same code.
_TOWER_SHAPE = (
    ("tower", "universal", 6, 6),
    ("tower", "universal", 5, 6),
    ("cpl", "universal", 5, None),
    ("tower", "multiplicative", 6, 7),
    ("cpl", "multiplicative", 5, None),
    ("cpl", "multiplicative", 6, None),
    ("tower", "additive", 6, 8),
    ("cpl", "additive", 5, None),
    ("cpl", "additive", 6, None),
)


def tower_spec(seed):
    rng = random.Random(seed)
    ops = []
    for kind, law, n, depth in _TOWER_SHAPE:
        op = {"kind": kind, "law": [law, n]}
        if kind == "tower":
            op["depth"] = depth
        else:
            op["vars"] = ["u", "v"]
            op["line"] = root_tree(rng.sample(op["vars"], 2), 3)
        ops.append(op)
    rng.shuffle(ops)
    laws = sorted({tuple(op["law"]) for op in ops})
    return {"workload": "tower", "seed": seed, "setup_laws": [list(x) for x in laws], "ops": ops}


# -- pushforward ---------------------------------------------------------------

RINGS_PER_CELL = 2
# 15 pushforwards per ring keep the cold first ones at 22 of 510 ops (4%),
# well below the 10% tail, so op_p90_ms is a warm-op percentile
ELEMENTS_PER_RING = 15


def _pushforward_cells():
    # universal rank 3 stays at N=5: its N+1 oracle at N=7 alone would take
    # about 9 s a ring
    for law in LAWS:
        for n in (5, 6):
            for rank in (1, 2, 3):
                if (law, n, rank) != ("universal", 6, 3):
                    yield law, n, rank


def pushforward_spec(seed):
    rng = random.Random(seed)
    rings = []
    for law, n, rank in _pushforward_cells():
        for k in range(RINGS_PER_CELL):
            names = ["v1", "v2"][: 1 + k % 2]
            order = rng.sample(names, len(names))
            tdegs = sorted(i % (rank + 2) for i in range(ELEMENTS_PER_RING))
            rings.append(
                {
                    "law": [law, n],
                    "vars": names,
                    "roots": [root_tree(order, j + k) for j in range(rank)],
                    "tdegs": tdegs,
                    "elements": [random_element(rng, names, d, j) for j, d in enumerate(tdegs)],
                    "base": random_element(rng, names, 0, 0),
                }
            )
    rng.shuffle(rings)
    ops = [{"kind": "push", "ring": i, "element": j} for i, r in enumerate(rings) for j in range(len(r["elements"]))]
    laws = sorted({tuple(r["law"]) for r in rings})
    return {"workload": "pushforward", "seed": seed, "setup_laws": [list(x) for x in laws], "rings": rings, "ops": ops}


# -- cli ----------------------------------------------------------------------------

SUITES = ("fgl-axioms", "whitney", "pbf", "cf", "grr", "fgl-theorem")
# (law, truncation, rank) per pbf request: universal stays small so that no
# single request dominates the mix
_PBF_SHAPE = (
    [("additive", n, r) for n in (3, 4, 5) for r in (1, 2, 3)]
    + [("multiplicative", n, r) for n in (3, 4, 5) for r in (1, 2, 3)]
    + [("universal", n, r) for n in (3, 4) for r in (1, 2)]
    + [("universal", 3, 3)]
)
_TOWER_CLI_SHAPE = (
    ("additive", 3, 3), ("additive", 5, 4), ("additive", 7, 6), ("additive", 8, 5),
    ("multiplicative", 3, 4), ("multiplicative", 4, 4), ("multiplicative", 5, 5), ("multiplicative", 6, 5),
)
_TASK_LAWS = (("additive", 6), ("multiplicative", 6), ("universal", 4))
TASK_FILES = 108
# chi and grr ranks: rank 4 costs tens of ms, rank 1-3 a few; with the other
# ops of that size the rank-4 requests fill the band of latencies around the
# 90th percentile, so op_p90_ms does not sit on a step between a few cheap
# and a few expensive requests
_CHI_RANKS = (1, 2, 3, 4, 4) * 3
_GRR_RANKS = (2, 3, 4) * 4

# Malformed requests, each case once in every run.  The README promises exit
# 2 for each; a few hit known defects on purpose (see ops.DEFECTS).
_MALFORMED_CASES = (
    "bad-expression",
    "unknown-name",
    "unknown-law",
    "unknown-op",
    "missing-field",
    "invalid-json",
    "bad-variable",
    "missing-file",
    "unknown-suite",
    "non-integer-k",
    "trunc-0",
    "grr-trunc-0",
    "chi-r0",
    "tower-negative-depth",
)


_ACTION_KINDS = ("expr", "chern", "euler", "inverse", "coefficient", "n-series")
_EXPR_FORMS = ("F({a}, inv({b}))", "F({a}, {b})^2 - {a}", "({a} + {b})^3 - F({a}, {a})", "inv(F({a}, {b})) * {a}")


def _n_series_ks(rng, law):
    """The k of a law's n-series actions, in seeded order.

    The sum [k](x) costs about k formal sums, so k is not a light
    parameter: every run takes its k from the same evenly spaced table
    (one k per n-series action of the law), and the seed only decides which
    task gets which.
    """
    top = 20 if law == "universal" else 50
    count = TASK_FILES // 6  # a law has a third of the tasks, half with n-series
    ks = [2 + j * (top - 2) // (count - 1) for j in range(count)]
    rng.shuffle(ks)
    return iter(ks)


def _actions(rng, law, n, names, bundles, i, ks):
    ops = []
    for op in (_ACTION_KINDS[i % 6], _ACTION_KINDS[(i + 2) % 6], _ACTION_KINDS[(i + 5) % 6]):
        if op == "expr":
            order = rng.sample(names, len(names))
            a, b = order[0], order[-1]
            form = _EXPR_FORMS[i % len(_EXPR_FORMS)]
            ops.append({"op": "expr", "expr": form.format(a=a, b=b)})
        elif op in ("chern", "euler"):
            bundle = rng.choice(sorted(bundles))
            act = {"op": op, "bundle": bundle}
            if op == "chern":
                act["k"] = rng.randint(0, len(bundles[bundle]))
            ops.append(act)
        elif op == "inverse":
            ops.append({"op": "inverse"})
        elif op == "coefficient":
            a = rng.randint(1, n - 1)
            ops.append({"op": "coefficient", "i": a, "j": rng.randint(1, n - a)})
        else:
            ops.append({"op": "n-series", "k": next(ks)})
    return ops


def _task(rng, law, n, i, ks):
    names = ["u", "v"][: 1 + i // 3 % 2]
    rank = 1 + i // 6 % 3
    order = rng.sample(names, len(names))
    bundles = {"E": [root_text(root_tree(order, i + j)) for j in range(rank)]}
    return {
        "law": law,
        "truncation": n,
        "variables": names,
        "bundles": bundles,
        "output": rng.choice(("text", "json")),
        "actions": _actions(rng, law, n, names, bundles, i, ks),
    }


def _malformed(rng, case, files):
    """The argv of a malformed request; task files it needs go into `files`."""
    fname = f"bad_{len(files):03d}.json"
    good = {"law": "additive", "variables": ["u"], "actions": [{"op": "inverse"}]}
    if case == "bad-expression":
        return ["pbf", "--roots", "u +* v", "--element", "t", "--action", "reduce"]
    if case == "unknown-name":
        return ["pbf", "--roots", "u", "--vars", "u", "--element", "t + w", "--action", "pushforward"]
    if case == "unknown-suite":
        return ["check", "no-such-suite"]
    if case == "trunc-0":
        return ["check", rng.choice([s for s in SUITES if s != "grr"]), "--trunc", "0"]
    if case == "grr-trunc-0":
        return ["check", "grr", "--trunc", "0"]
    if case == "chi-r0":
        return ["chi", "0", str(rng.randint(1, 5))]
    if case == "tower-negative-depth":
        return ["tower", "--law", rng.choice(("additive", "multiplicative")), "--depth", "-1"]
    if case == "missing-file":
        return ["run", "@missing.json"]
    if case == "invalid-json":
        files[fname] = '{"law": "additive", "actions": ['
        return ["run", "@" + fname]
    task = dict(good)
    if case == "unknown-law":
        task["law"] = "quadratic"
    elif case == "unknown-op":
        task["actions"] = [{"op": "integrate"}]
    elif case == "missing-field":
        task["actions"] = [{"op": "n-series"}]
    elif case == "bad-variable":
        task["variables"] = ["t"]
    elif case == "non-integer-k":
        task["actions"] = [{"op": "n-series", "k": rng.choice(("abc", [1], "2.5"))}]
    files[fname] = json.dumps(task)
    return ["run", "@" + fname]


def cli_spec(seed):
    rng = random.Random(seed)
    ops = []
    files = {}

    def add(argv, case, expect):
        ops.append({"kind": "cli", "argv": argv, "case": case, "expect": expect})

    for suite in SUITES:
        for n in (3, 4, 5):
            argv = ["check", suite, "--trunc", str(n)] + (["--json"] if rng.random() < 0.5 else [])
            add(argv, f"check:{suite}:{n}", {"oracle": "report"})
    for law, depth, n in _TOWER_CLI_SHAPE:
        argv = ["tower", "--law", law, "--depth", str(depth), "--trunc", str(n)]
        argv += ["--json"] if rng.random() < 0.5 else []
        add(argv, f"tower:{law}", {"oracle": "tower", "law": law, "depth": depth})
    for r in _CHI_RANKS:
        k = rng.randint(-3, 8)
        add(["chi", str(r), str(k)] + (["--json"] if rng.random() < 0.5 else []), "chi", {"oracle": "chi", "r": r, "k": k})
    for r in _GRR_RANKS:
        k = rng.randint(-3, 5)
        add(["grr", str(r), str(k)] + (["--json"] if rng.random() < 0.5 else []), "grr", {"oracle": "grr", "r": r, "k": k})
    for i, (law, n, rank) in enumerate(_PBF_SHAPE * 2):
        names = ["u", "v"][: 1 + i % 2]
        order = rng.sample(names, len(names))
        roots = ", ".join(root_text(root_tree(order, i + j)) for j in range(rank))
        element = element_text(random_element(rng, names, i % (rank + 2), i))
        action = ("reduce", "pushforward")[i // len(_PBF_SHAPE)]
        argv = ["pbf", "--law", law, "--trunc", str(n), "--roots", roots, "--element", element,
                "--action", action, "--vars", ",".join(names)]
        add(argv + (["--json"] if rng.random() < 0.5 else []), f"pbf:{action}", {"oracle": "exit", "code": 0})
    ks = {law: _n_series_ks(rng, law) for law, _ in _TASK_LAWS}
    for i in range(TASK_FILES):
        # every law meets every rotation of the action kinds
        law, n = _TASK_LAWS[(i + i // 6) % len(_TASK_LAWS)]
        task = _task(rng, law, n, i, ks[law])
        fname = f"task_{i:03d}.json"
        files[fname] = json.dumps(task, indent=1)
        nseries = [
            {"index": j, "k": a["k"]}
            for j, a in enumerate(task["actions"], 1)
            if a["op"] == "n-series" and law != "universal"
        ]
        expect = {"oracle": "run", "law": law, "truncation": n, "output": task["output"], "nseries": nseries}
        add(["run", "@" + fname], "run", expect)
    for case in _MALFORMED_CASES:
        add(_malformed(rng, case, files), f"malformed:{case}", {"oracle": "exit", "code": 2})
    rng.shuffle(ops)
    return {"workload": "cli", "seed": seed, "setup_laws": [], "files": files, "ops": ops}


def generate(workload, seed):
    """The complete input of one run: a JSON-serializable dict."""
    if workload == "tower":
        return tower_spec(seed)
    if workload == "pushforward":
        return pushforward_spec(seed)
    if workload == "cli":
        return cli_spec(seed)
    raise ValueError(f"unknown workload {workload!r}")
