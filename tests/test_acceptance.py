"""Acceptance battery: one test per headline guarantee, one pass/fail line each.

Each test is self-contained and states its parameters inline; the library
check helpers it calls are themselves exercised piecemeal in the other test
files.  Time budgets are asserted where a guarantee carries one.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

from occ import pushforward_p1_formula
from occ.bundles import SplitBundle, whitney_check
from occ.fgl import make_law
from occ.projective import (
    ProjBundleRing,
    class_of_proj_line,
    geometric_fgl_check,
    pb_relation_check,
    projection_formula_check,
    sequence_extend,
    tower_classes,
)
from occ.series import exp_of, first_difference, invert_unit, log1p_of
from occ.specialization import (
    SpecializationMap,
    grr_check,
    k_euler_characteristic,
    specialize,
    todd_factor,
)

LAW_KINDS = ("additive", "multiplicative", "universal")


def fails(report):
    return "\n".join(line for line in report.lines() if line.startswith("FAIL"))


def test_01_fgl_axiom_suite():
    # unit, commutativity, associativity for all three laws at N=6, < 30 s
    start = time.monotonic()
    for kind in LAW_KINDS:
        rep = make_law(kind, 6).check_axioms()
        assert rep.passed, fails(rep)
    assert time.monotonic() - start < 30


def test_02_inverse_and_n_series():
    # F(x, iota(x)) = 0 and F([k]x, [-k]x) = 0 for k <= 4, N=6
    for kind in LAW_KINDS:
        law = make_law(kind, 6)
        xs = law.context.var(law.x)
        assert law.apply(xs, law.formal_inverse()).is_zero, kind
        for k in range(5):
            lhs = law.apply(law.formal_sum_n(k), law.formal_sum_n(-k))
            assert lhs.is_zero, (kind, k)


def test_03_specialization_consistency():
    # the universal law at m_i = 0 is the additive law and at m_i = 1/(i+1)
    # the multiplicative one, coefficient by coefficient at N=8
    law_u = make_law("universal", 8)
    law_a = make_law("additive", 8)
    law_m = make_law("multiplicative", 8)
    at_zero = specialize(SpecializationMap.to_additive(law_u), law_u.F)
    assert first_difference(at_zero, law_a.F.substitute({}, into=at_zero.context)) is None
    at_inv = specialize(SpecializationMap.to_multiplicative(law_u), law_u.F)
    assert first_difference(at_inv, law_m.F.substitute({}, into=at_inv.context)) is None


def test_04_whitney_sum_formula():
    # c(E + F) = c(E) c(F) on 50 randomized split bundles of rank <= 3 over
    # contexts with <= 4 class variables at N=6
    rep = whitney_check(truncation=6, cases=50, seed=0)
    assert len(rep.items) == 50
    assert rep.passed, fails(rep)


def test_05_projective_bundle_relation():
    # e(E*(-1)) carries the defining relation sum_i (-1)^i c_{r-i}(E*) t^i
    # (equal up to a constant-term-1 unit, literally for the additive law)
    # and reduces to zero in the bundle ring; r <= 3, all three laws, N=6
    rep = pb_relation_check(truncation=6)
    assert rep.passed, fails(rep)


def test_06_pushforward_cross_validation():
    # residue pushforward of 1 on P(L+O) against the law-coefficient formula
    # -sum b_ij e(L)^(i-1) e(L*)^(j-1), universal law at N=6, < 60 s
    start = time.monotonic()
    law = make_law("universal", 6)
    ctx = law.geometry_context(["u"])
    u = ctx.var("u")
    ring = ProjBundleRing(SplitBundle(law, [u, ctx.zero()]), "s")
    direct = ring.pushforward(ring.context.one())
    formula = pushforward_p1_formula(law, u)
    assert first_difference(direct, formula) is None
    assert time.monotonic() - start < 60


def test_07_k_theory_euler_characteristic_oracle():
    # multiplicative pushforward of [O(k)] from the trivial rank-r bundle
    # equals binomial(k+r-1, r-1) for r in {2,3,4}, k in {0..5}
    for r in (2, 3, 4):
        for k in range(6):
            assert k_euler_characteristic(r, k) == comb(k + r - 1, r - 1), (r, k)


def test_08_riemann_roch_comparison():
    # additive pushforward with Todd factors and the K-theory Euler
    # characteristic both equal the binomial oracle; r in {2,3}, k in {0..4},
    # < 120 s
    start = time.monotonic()
    for r in (2, 3):
        for k in range(5):
            rep = grr_check(r, k)
            assert rep.passed, fails(rep)
    assert time.monotonic() - start < 120


def test_09_todd_twist_identities():
    # the twisted first Chern classes 1 - exp(u) and log(1 - u) are the
    # multiplicative law's exp e_m(-u) and log -l_m(u); e_m and l_m exchange
    # sums with the law, and through them the Todd class inverts to
    # -u/e_m(u) and -l_m(v)/v; all at N=8
    law_m = make_law("multiplicative", 8)
    ctx = law_m.geometry_context(["u", "v"])
    u, v = ctx.var("u"), ctx.var("v")
    e_m = lambda s: law_m.exp().substitute({"x": s}, into=ctx)
    l_m = lambda s: law_m.log().substitute({"x": s}, into=ctx)
    assert 1 - exp_of(u) == e_m(-u) and log1p_of(-u) == -l_m(u)
    assert e_m(u + v) == law_m.apply(e_m(u), e_m(v))
    assert l_m(law_m.apply(u, v)) == l_m(u) + l_m(v)
    assert todd_factor(u) * e_m(u) == -u
    assert todd_factor(l_m(v)) * v == -l_m(v)


def test_10_geometric_law_identity():
    # F(u1,u2) (1 + u1 u2 ([P2]-[P3])) = u1 + u2 - u1 u2 [P1] with all point
    # classes produced by residue pushforwards; additive and multiplicative
    # at N=6, universal at N=5 and at N=6, the first order at which a P2 off
    # the lines of P3's base fails; < 10 min
    start = time.monotonic()
    cases = (("additive", 6), ("multiplicative", 6), ("universal", 5), ("universal", 6))
    for kind, trunc in cases:
        rep = geometric_fgl_check(make_law(kind, trunc))
        assert rep.passed, f"{kind}: {fails(rep)}"
    assert time.monotonic() - start < 600


class TowerRing:
    """The tower over a point: P_0 = pt, P_{k+1} = P(M_k + O), M_{k+1} = M_k(1).

    M_0 = O.  Level k lives in the context of the base point extended by
    t_1..t_k; `m_classes[k]` is the first Chern class of M_k on P_k.
    """

    def __init__(self, law, depth):
        self.law = law
        ctx = self.base_context = law.geometry_context([])
        self.rings = []
        self.m_classes = [ctx.zero()]
        for k in range(1, depth + 1):
            bundle = SplitBundle(law, [self.m_classes[-1], ctx.zero()])
            ring = ProjBundleRing(bundle, f"t{k}")
            ctx = ring.context
            self.rings.append(ring)
            lifted = self.m_classes[-1].substitute({}, into=ctx)
            self.m_classes.append(law.apply(lifted, ctx.var(f"t{k}")))

    def point_class(self, level):
        """[P_level]: the pushforward of 1 from level `level` down to the base.

        Every level after the first consumes one weight of precision (the
        truncation cut above re-enters one weight lower), so the result of
        an l-level descent is exact up to weight N - l + 1.
        """
        p = self.rings[level - 1].context.one() if level else self.base_context.one()
        for ring in reversed(self.rings[:level]):
            p = ring.pushforward(p)
        return p


def test_11_proj_line_ratio_identity():
    # the tower classes from the recursion in [P(L+O)] equal the iterated
    # pushforwards of the tower itself (depth 7), and [P(L+O)] equals the
    # ratio (sum_i [P_{i+1}] u^i) / (sum_i [P_i] u^i) of those iterated
    # classes; all three laws at N=6
    for kind in LAW_KINDS:
        law = make_law(kind, 6)
        tower = TowerRing(law, 7)
        iterated = [tower.point_class(k) for k in range(8)]
        for k, (got, want) in enumerate(zip(tower_classes(law, 7), iterated)):
            assert first_difference(got, want) is None, (kind, k)
        ctx = law.geometry_context(["u"])
        u = ctx.var("u")
        cl = [c.to_context(ctx) for c in iterated]
        num = sum((cl[i + 1] * u**i for i in range(7)), ctx.zero())
        den = sum((cl[i] * u**i for i in range(7)), ctx.zero())
        ratio = num * invert_unit(den)
        assert first_difference(class_of_proj_line(law, u), ratio) is None, kind


def test_12_relation_recursion_stabilizes():
    # extending a seed by the rank-r relation recursion reaches an all-zero
    # tail no later than index N*r, and the extended sequence satisfies the
    # recursion at every index; 20 randomized instances
    N = 6
    rng = random.Random(5)
    laws = {k: make_law(k, N) for k in LAW_KINDS}
    for case in range(20):
        law = laws[LAW_KINDS[case % 3]]
        nvars = rng.randint(1, 2)
        names = [f"v{i}" for i in range(1, nvars + 1)]
        ctx = law.geometry_context(names)
        vs = [ctx.var(n) for n in names]
        r = rng.randint(1, 3)
        roots = []
        for _ in range(r):
            x = vs[rng.randrange(nvars)]
            if rng.randrange(2):
                x = law.apply(x, law.inverse_at(vs[rng.randrange(nvars)]))
            roots.append(x)
        cs = SplitBundle(law, roots).relation_coefficients()
        seeds = []
        for _ in range(r):
            s = ctx.const(Fraction(rng.randint(-2, 2)))
            for n in names:
                e = rng.randrange(3)
                if e:
                    s = s + ctx.var(n) ** e * rng.randint(-2, 2)
            seeds.append(s)
        limit = N * r + r
        vals, stab = sequence_extend(cs, seeds, limit)
        assert stab <= N * r + 1, (case, stab)
        for n in range(limit - r + 1):
            acc = ctx.zero()
            for j in range(r + 1):
                acc = acc + cs[j] * vals[n + j]
            assert acc.is_zero, (case, n)


def test_13_projection_formula():
    # pi_!(pi^*(a) b) = a pi_!(b) on 20 randomized (a, b, E) with rank <= 3
    rep = projection_formula_check(truncation=6, cases=20, seed=0)
    assert len(rep.items) == 20
    assert rep.passed, fails(rep)


def test_14_cli_reports_deterministic():
    # every named check suite prints byte-identical reports on two
    # consecutive runs
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

    def occ_check(suite):
        proc = subprocess.run(
            [sys.executable, "-m", "occ.cli", "check", suite],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    for suite in ("fgl-axioms", "whitney", "pbf", "cf", "grr", "fgl-theorem"):
        assert occ_check(suite) == occ_check(suite), suite
