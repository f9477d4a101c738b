"""K-theory and additive specializations of the universal calculus.

The universal coefficient generators m_i can be assigned rational values:
0 for the additive theory, 1/(i+1) for the multiplicative one (so that the
logarithm specializes to x and to x + x^2/2 + x^3/3 + ... respectively).

On the multiplicative side, a K-class is a degree-0 series whose constant
term is its virtual rank.  K-classes of line bundles are expressed through
the n-series: a line with Euler class u has class 1 - iota(u) = 1/(1-u), and
its k-th tensor power has class 1 - [-k](u) = (1-u)^(-k) (`twist_class`).
The Chern character to K-theory is ch_m(E) = rank(E) - c_1(E*).

On the additive side, ch_a sends a line to exp(-c_1) and the Todd class of a
line is c_1 / (exp(-c_1) - 1).  Note the sign convention: with this reading
the Todd class of the trivial line is the constant -1, and Todd classes are
(-1)^rank times the classical ones; the Euler-characteristic bookkeeping in
`grr_check` divides by the Todd class of the trivial summand, so the signs
cancel out of the Riemann-Roch comparison.

The binomial Euler characteristic that `grr_check` compares against comes
from `occ.oracles`.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from math import factorial

from .series import (
    CalculusError,
    Context,
    Series,
    compose_coeffs,
    exp_of,
    invert_unit,
)
from .fgl import ADDITIVE, MULTIPLICATIVE, FormalGroupLaw, make_law
from .bundles import SplitBundle
from .projective import ProjBundleRing, pushforward_p1_formula, tower_classes
from .oracles import k_chi_oracle
from .reports import CheckItem, Report, agreement


# -- specialization maps -----------------------------------------------------------


class SpecializationMap(namedtuple("SpecializationMap", "assignment")):
    """An assignment of rational values to the universal coefficient generators."""

    __slots__ = ()

    @staticmethod
    def to_additive(law: FormalGroupLaw) -> "SpecializationMap":
        return SpecializationMap({v.name: Fraction(0) for v in law.generators})

    @staticmethod
    def to_multiplicative(law: FormalGroupLaw) -> "SpecializationMap":
        return SpecializationMap({v.name: Fraction(1, 1 - v.degree) for v in law.generators})


def specialize(sm: SpecializationMap, p: Series, into: Context | None = None) -> Series:
    """Substitute the assigned generator values; the generators drop out.

    Without `into`, the target is the source context minus the generators.
    """
    ctx = p.context
    if into is None:
        keep = tuple(v for v in ctx.variables if v.name not in sm.assignment)
        into = Context(keep, ctx.truncation)
    mapping = {n: v for n, v in sm.assignment.items() if n in ctx._index}
    return p.substitute(mapping, into=into)


# -- K-theory side -----------------------------------------------------------------


def twist_class(law, u: Series, k: int) -> Series:
    """[L^(x)k] = 1 - [-k](u): the class of the k-th tensor power; k = 1 gives [L]."""
    return 1 - law.sum_n_at(-k, u)


def ch_m(E: SplitBundle) -> Series:
    """The K-theory character rank(E) - c_1(E*) = sum_i (1 - iota(x_i))."""
    return E.rank - E.dual().chern(1)


# -- additive side -------------------------------------------------------------------


def ch_a(E: SplitBundle) -> Series:
    """The additive character sum_i exp(-x_i) over the roots."""
    acc = E.context.zero()
    for x in E.roots:
        acc = acc + exp_of(-x)
    return acc


def todd_factor(root: Series) -> Series:
    """c_1/(exp(-c_1) - 1) for one root: -1/h(root) with h(z) = (1-exp(-z))/z."""
    h = compose_coeffs(lambda k: Fraction((-1) ** k, factorial(k + 1)), root)
    return -invert_unit(h)


def todd(E: SplitBundle) -> Series:
    """Product of the Todd factors of the roots.  todd of a trivial line is -1."""
    acc = E.context.one()
    for x in E.roots:
        acc = acc * todd_factor(x)
    return acc


# -- Euler characteristics and Riemann-Roch ---------------------------------------------


def k_euler_characteristic(r: int, k: int) -> Fraction:
    """chi(P^(r-1), O(k)) computed in the multiplicative model by pushforward."""
    law = make_law(MULTIPLICATIVE, max(r, 2))
    ctx = law.geometry_context([])
    ring = ProjBundleRing(SplitBundle(law, [ctx.zero()] * r), "t")
    cls = twist_class(law, ring.context.var("t"), k)
    return ring.pushforward(cls).constant_term


def grr_check(r: int, k: int) -> Report:
    """Riemann-Roch on P^(r-1): pushforward of ch_a(O(k)) * Td(relative tangent).

    The relative cotangent-side bundle satisfies L_pi + O = E*(-1), so
    Td(L_pi) = todd(E*(-1)) / todd(O) with todd(O) = -1.  Both the additive
    pushforward and the K-theory Euler characteristic must match the
    binomial oracle exactly.
    """
    if r < 2:
        raise CalculusError("r must be >= 2")
    oracle = k_chi_oracle(r, k)

    law = make_law(ADDITIVE, max(r, 2))
    ctx = law.geometry_context([])
    trivial = SplitBundle(law, [ctx.zero()] * r)
    ring = ProjBundleRing(trivial, "t")
    t = ring.context.var("t")
    ch_ok = ch_a(SplitBundle(law, [law.sum_n_at(k, t)]))  # ch_a of O(k)
    up = SplitBundle(law, [ring.context.zero()] * r)
    rel = up.dual().twist_by_line(law.inverse_at(t))  # E*(-1) upstairs
    td_rel = todd(rel) * (-1)  # divide by todd(O) = -1
    lhs = ring.pushforward(ch_ok * td_rel).constant_term
    chi = k_euler_characteristic(r, k)

    items = tuple(
        CheckItem(f"grr-{name}[r={r},k={k}]", expected == actual, detail, str(expected), str(actual))
        for name, expected, actual, detail in (
            ("additive", oracle, lhs, f"pushforward {lhs}, oracle {oracle}"),
            ("ktheory", oracle, chi, f"chi {chi}, oracle {oracle}"),
            ("match", lhs, chi, f"additive {lhs}, K-theory {chi}"),
        )
    )
    return Report(f"grr[r={r}, k={k}]", items)


# -- Conner-Floyd battery -----------------------------------------------------------


def conner_floyd_check(truncation: int = 6, seed: int = 0) -> Report:
    """Specialize universal computations at m_i = 1/(i+1) and compare with the
    direct multiplicative computations: the law itself, inverses, Chern
    classes of randomized bundles, the P(L+O) pushforward, and tower classes.
    All comparisons are exact."""
    N = truncation
    law_u = make_law("universal", N)
    law_m = make_law(MULTIPLICATIVE, N)
    # The P^1 class (u + iota(u)) / (u iota(u)) is homogeneous of degree -1,
    # so its weight-N coefficient involves m_N and m_{N+1}, and the tower
    # class [P_3] involves m_3; the truncation-N universal law carries only
    # m_1..m_{N-1}.  One law raised to max(N + 2, depth + 1) computes the
    # universal side of both, the tower reusing the [P(L + O)] class the
    # p1-formula item caches on it; p1-pushforward takes the residue route.
    # Its map also specializes the truncation-N law: `specialize` maps only
    # the generators present in a context.  The law, inverse and Chern items
    # stay on that cheaper law.
    depth = 3
    law_hi = make_law("universal", max(N + 2, depth + 1))
    sm = SpecializationMap.to_multiplicative(law_hi)

    def compare(name, universal, multiplicative):
        got = specialize(sm, universal, into=multiplicative.context)
        item = agreement(name, got, multiplicative)
        return item._replace(expected=str(multiplicative), actual=str(got))

    items = [
        compare("law", law_u.F, law_m.F),
        compare("formal-inverse", law_u.formal_inverse(), law_m.formal_inverse()),
    ]

    names = ("u1", "u2")
    gm = law_m.geometry_context(names)
    rng = random.Random(seed)
    pool_u = _root_pool(law_u, law_u.geometry_context(names))
    pool_m = _root_pool(law_m, gm)
    for case in range(3):
        idx = [rng.randrange(len(pool_u)) for _ in range(rng.randint(1, 3))]
        bu = SplitBundle(law_u, [pool_u[i] for i in idx])
        bm = SplitBundle(law_m, [pool_m[i] for i in idx])
        for k in range(1, bu.rank + 1):
            items.append(compare(f"chern-c{k}-case{case}", bu.chern(k), bm.chern(k)))

    lines = ((law_hi, law_hi.geometry_context(names).var("u1")), (law_m, gm.var("u1")))
    p1s = [ProjBundleRing(SplitBundle(law, [u, u.context.zero()])) for law, u in lines]
    items.append(compare("p1-pushforward", *(p1.pushforward(p1.context.one()) for p1 in p1s)))
    items.append(compare("p1-formula", *(pushforward_p1_formula(law, u) for law, u in lines)))
    towers = zip(tower_classes(law_hi, depth), tower_classes(law_m, depth))
    items.extend(compare(f"tower-P{i}", tu, tm) for i, (tu, tm) in enumerate(towers))

    return Report(f"conner-floyd[N={N}]", tuple(items))


def _root_pool(law, ctx):
    u1, u2 = ctx.var("u1"), ctx.var("u2")
    return [
        u1,
        u2,
        ctx.zero(),
        law.apply(u1, u2),
        law.inverse_at(u1),
        law.apply(u1, law.inverse_at(u2)),
    ]
