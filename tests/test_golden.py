"""Byte-identity guard for the cold pushforward template, the tower classes,
pushforwards of elements with fractional coefficients, exact quotients and
the Conner-Floyd battery.

The SHA-256 digests of the printed results were recorded before the template
path was rewritten (graded exp/log, one-pass split, one product per
substitution profile), for the fractional pushforwards before the product
kernel cleared denominators, for the quotients before exact division
became a graded solve, for the battery before it shared one raised
universal law between its P^1 and tower items, and for the check reports
before their items were built by one comparison rule; every rewrite of
these paths must reproduce them.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from occ.bundles import SplitBundle
from occ.cli import SUITES, build_suite
from occ.fgl import make_law
from occ.projective import (
    ProjBundleRing,
    projection_formula_check,
    pushforward_template,
    tower_classes,
)
from occ.series import exact_divide
from occ.specialization import conner_floyd_check, grr_check


def digest(series_list):
    return hashlib.sha256("\n".join(map(str, series_list)).encode()).hexdigest()


# (law, r, N) -> digest of pi_!(t^k), k = 0..r-1, one per line
TEMPLATES = {
    ("additive", 2, 4): "1e9987e996a1c529f61f4339797481b7b1138b15f18a44e06dde45eabbc67921",
    ("additive", 2, 5): "1e9987e996a1c529f61f4339797481b7b1138b15f18a44e06dde45eabbc67921",
    ("additive", 2, 6): "1e9987e996a1c529f61f4339797481b7b1138b15f18a44e06dde45eabbc67921",
    ("additive", 3, 4): "e5915907865758ed7d95b0534354c9d58e3c4b658943780ee97737e1a7fe28df",
    ("additive", 3, 5): "e5915907865758ed7d95b0534354c9d58e3c4b658943780ee97737e1a7fe28df",
    ("additive", 3, 6): "e5915907865758ed7d95b0534354c9d58e3c4b658943780ee97737e1a7fe28df",
    ("additive", 4, 4): "276c9e0dfc5fc33bbfcabd7f28494b2c6b0c9f991e2ab6d82e281514dd02be8b",
    ("additive", 4, 5): "276c9e0dfc5fc33bbfcabd7f28494b2c6b0c9f991e2ab6d82e281514dd02be8b",
    ("additive", 4, 6): "276c9e0dfc5fc33bbfcabd7f28494b2c6b0c9f991e2ab6d82e281514dd02be8b",
    ("multiplicative", 2, 4): "c553228271d4cf65305957e97cd75da60964776a9e615c702bd6a4c077d266c0",
    ("multiplicative", 2, 5): "c553228271d4cf65305957e97cd75da60964776a9e615c702bd6a4c077d266c0",
    ("multiplicative", 2, 6): "c553228271d4cf65305957e97cd75da60964776a9e615c702bd6a4c077d266c0",
    ("multiplicative", 3, 4): "3a146bbd8507fe79a1c260aba824775ccf6c0841a9234338ad8e92d0bc009394",
    ("multiplicative", 3, 5): "3a146bbd8507fe79a1c260aba824775ccf6c0841a9234338ad8e92d0bc009394",
    ("multiplicative", 3, 6): "3a146bbd8507fe79a1c260aba824775ccf6c0841a9234338ad8e92d0bc009394",
    ("multiplicative", 4, 4): "149051825acc9f70977387777097d077b40b4c368bcf075fd8e098058451694c",
    ("multiplicative", 4, 5): "149051825acc9f70977387777097d077b40b4c368bcf075fd8e098058451694c",
    ("multiplicative", 4, 6): "149051825acc9f70977387777097d077b40b4c368bcf075fd8e098058451694c",
    ("universal", 2, 4): "57444024ddeea9df129c0768efeb7066a1deb47236c453b667ed63dcdc1eda59",
    ("universal", 2, 5): "44347fcec06af8545bda347038f3635c26ade662b7979f9bf69b44e844acd24c",
    ("universal", 2, 6): "4602522855ddffe654473de1087e8201674d09e9386dbcaf4e98f17d9580d44f",
    ("universal", 3, 4): "6ee74bac3c4b6190709542b321d019719845bc53e5d068c9a2e183fd41ec082e",
    ("universal", 3, 5): "305e49d8f9c26dd20952e41c4f57eeeadaca91074e7e3e579e7525439c071fcb",
    ("universal", 3, 6): "2165fb7b4ae46df854d14fd26ff0a256d68c183351cf1b10d3a661d606f3f002",
    ("universal", 4, 4): "f9fea7c9e393685da0f91a16ad0e73e5b7f4e385f3bd1304057059ce2c4840a0",
    ("universal", 4, 5): "3397174d02e2999d301a4d02abb7f561972b497207320bed589585cffd949ae1",
    ("universal", 4, 6): "593e2fd4e1a633a6a1db5ee8bcdb1d602d1e1fddf3eb1a923bd38503b61324ed",
}


@pytest.mark.parametrize("kind, r, N", sorted(TEMPLATES))
def test_pushforward_template_digest(kind, r, N):
    law = make_law(kind, N)
    got = digest(pushforward_template(law, N, r))
    assert got == TEMPLATES[kind, r, N]


def test_universal_tower_classes_digest():
    classes = tower_classes(make_law("universal", 6), 7)
    assert digest(classes) == "e346a0f79b3691862d157fc97e53609e1abf16c185de199290ec5b1d8c29081e"


def test_fractional_pushforwards_digest():
    """pi_! of elements with denominators 2, 3 and 4: ranks 1-3, every law, t-degree <= r + 1."""
    out = []
    for kind in ("additive", "multiplicative", "universal"):
        law = make_law(kind, 5)
        ctx = law.geometry_context(["u", "v"])
        u, v = ctx.var("u"), ctx.var("v")
        for r in (1, 2, 3):
            ring = ProjBundleRing(SplitBundle(law, [u, law.apply(u, v), v][:r]), "t")
            t, lu, lv = ring.var("t"), ring.lift(u), ring.lift(v)
            body = Fraction(1, 2) + Fraction(2, 3) * lu - Fraction(3, 4) * lv * lv
            out.extend(ring.pushforward(t**k * body + Fraction(5, 2) * lu * t) for k in range(r + 2))
    assert digest(out) == "4e62c0e3357f1d25dbe54281bd8a2518416e44ea35f588c947c7d04744637c83"


def test_exact_quotients_digest():
    """F(x, iota(y))/(x - y) and (F - x - y)/(x y) at N = 2..8 (universal to 7), and
    the unit e(E*(-1))/f(t) of the P(E) relation check for r = 1..3 at N = 6."""
    out = []
    for kind, top in (("additive", 8), ("multiplicative", 8), ("universal", 7)):
        for N in range(2, top + 1):
            law = make_law(kind, N)
            x, y = law.context.var(law.x), law.context.var(law.y)
            out.append(exact_divide(law.apply(x, law.inverse_at(y)), x - y))
            out.append(exact_divide(law.F - x - y, x * y))
        law = make_law(kind, 6)
        for r in (1, 2, 3):
            names = [f"u{i}" for i in range(1, r + 1)]
            ctx = law.geometry_context(names)
            ring = ProjBundleRing(SplitBundle(law, [ctx.var(n) for n in names]), "t")
            up = SplitBundle(law, [ring.lift(ctx.var(n)) for n in names])
            euler = up.dual().twist_by_line(law.inverse_at(ring.var("t"))).euler()
            out.append(exact_divide(euler, ring.relation))
    assert digest(out) == "573d6e0e0db0b1a0a7385c8ba6ebea095e014d45cd7bd8615a231e6837ed2dc5"


def test_conner_floyd_battery_digest():
    """The JSON report of the battery at N = 1..8 for seeds 0 and 3."""
    reports = [conner_floyd_check(N, seed).to_json_obj() for seed in (0, 3) for N in range(1, 9)]
    got = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert got == "37b4483dc8e949a2e1dd76aab330cc283b6c82471b5511a01e5d36ac249919fd"


def test_check_reports_digest():
    """Text and JSON of every `occ check` suite at N = 1..6, of grr_check for
    r = 2..4 and k = -3..5, and of the projection-formula battery at N = 3..5
    for seeds 0 and 1."""
    reports = [build_suite(s, N) for s in SUITES for N in range(1, 7)]
    reports += [grr_check(r, k) for r in range(2, 5) for k in range(-3, 6)]
    reports += [projection_formula_check(N, 20, seed) for N in range(3, 6) for seed in (0, 1)]
    blob = json.dumps([[rep.lines(), rep.to_json_obj()] for rep in reports], sort_keys=True)
    got = hashlib.sha256(blob.encode()).hexdigest()
    assert got == "127a92b7300c0966b9b5b261677c2aaa803bf8025f6b3fca58524f9f13816cb3"
