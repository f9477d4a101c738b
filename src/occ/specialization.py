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
cancel out of the Riemann-Roch comparison.  The twisted first Chern classes
1 - exp(u) and log(1 - u) and the primed Todd class c_1(L*)/log(1 - c_1(L*))
invert the two Todd conventions against each other.

The binomial Euler characteristic and the closed form of [P(L + O)] that
`grr_check` and `conner_floyd_check` compare against come from
`occ.oracles`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .series import (
    CalculusError,
    Context,
    Series,
    compose_coeffs,
    exp_of,
    invert_unit,
    log1p_of,
)
from .fgl import ADDITIVE, MULTIPLICATIVE, FormalGroupLaw, make_law
from .bundles import SplitBundle
from .projective import ProjBundleRing, class_of_proj_line, tower_classes
from .oracles import k_chi_oracle, pushforward_p1_formula
from .reports import CheckItem, Report, difference_detail


# -- specialization maps -----------------------------------------------------------


@dataclass(frozen=True)
class SpecializationMap:
    """An assignment of rational values to the universal coefficient generators."""

    assignment: dict

    @staticmethod
    def to_additive(law: FormalGroupLaw) -> "SpecializationMap":
        return SpecializationMap({n: Fraction(0) for n in law.coefficient_names})

    @staticmethod
    def to_multiplicative(law: FormalGroupLaw) -> "SpecializationMap":
        return SpecializationMap({n: Fraction(1, int(n[1:]) + 1) for n in law.coefficient_names})


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


def todd_prime_at_dual(v: Series) -> Series:
    """v / log(1 - v) where v is the first Chern class of the dual line."""
    # log(1-v)/v = -(1 + v/2 + v^2/3 + ...); invert and flip the sign
    w = compose_coeffs(lambda k: Fraction(-1, k + 1), v)
    return invert_unit(w)


def twisted_c1(mode, u: Series) -> Series:
    """The twisted first Chern classes: "t" is 1 - exp(u), "t-prime" is log(1-u)."""
    if mode == "t":
        return 1 - exp_of(u)
    if mode == "t-prime":
        return log1p_of(-u)
    raise CalculusError(f"unknown twist mode {mode!r}")


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
    ch_ok = exp_of(-law.sum_n_at(k, t))  # ch_a of O(k): exp(-[k](t))
    up = SplitBundle(law, [ring.context.zero()] * r)
    rel = up.dual().twist_by_line(law.inverse_at(t))  # E*(-1) upstairs
    td_rel = todd(rel) * (-1)  # divide by todd(O) = -1
    lhs = ring.pushforward(ch_ok * td_rel).constant_term
    chi = k_euler_characteristic(r, k)

    items = (
        CheckItem(
            f"grr-additive[r={r},k={k}]",
            lhs == oracle,
            f"pushforward {lhs}, oracle {oracle}",
            str(oracle),
            str(lhs),
        ),
        CheckItem(
            f"grr-ktheory[r={r},k={k}]",
            chi == oracle,
            f"chi {chi}, oracle {oracle}",
            str(oracle),
            str(chi),
        ),
        CheckItem(
            f"grr-match[r={r},k={k}]",
            lhs == chi,
            f"additive {lhs}, K-theory {chi}",
            str(lhs),
            str(chi),
        ),
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
    sm = SpecializationMap.to_multiplicative(law_u)
    items = []

    items.append(
        _cmp("law", specialize(sm, law_u.F, into=law_m.context), law_m.F)
    )
    items.append(
        _cmp(
            "formal-inverse",
            specialize(sm, law_u.formal_inverse(), into=law_m.context),
            law_m.formal_inverse(),
        )
    )

    names = ("u1", "u2")
    gu = law_u.geometry_context(names)
    gm = law_m.geometry_context(names)
    rng = random.Random(seed)
    pool_u = _root_pool(law_u, gu)
    pool_m = _root_pool(law_m, gm)
    for case in range(3):
        idx = [rng.randrange(len(pool_u)) for _ in range(rng.randint(1, 3))]
        bu = SplitBundle(law_u, [pool_u[i] for i in idx])
        bm = SplitBundle(law_m, [pool_m[i] for i in idx])
        for k in range(1, bu.rank + 1):
            items.append(
                _cmp(
                    f"chern-c{k}-case{case}",
                    specialize(sm, bu.chern(k), into=gm),
                    bm.chern(k),
                )
            )

    # The P^1 class (u + iota(u)) / (u iota(u)) is homogeneous of degree -1,
    # so its weight-N coefficient involves the generators m_N and m_{N+1};
    # the truncation-N universal law only carries m_1..m_{N-1}.  Compute the
    # universal side with the larger law at N+2 (generators through m_{N+1}),
    # then specialize into the weight-N multiplicative context.
    law_hi = make_law("universal", N + 2)
    sm_hi = SpecializationMap.to_multiplicative(law_hi)
    g_hi = law_hi.geometry_context(names)
    u_hi, u_m = g_hi.var("u1"), gm.var("u1")
    items.append(
        _cmp(
            "p1-pushforward",
            specialize(sm_hi, class_of_proj_line(law_hi, u_hi), into=gm),
            class_of_proj_line(law_m, u_m),
        )
    )
    items.append(
        _cmp(
            "p1-formula",
            specialize(sm_hi, pushforward_p1_formula(law_hi, u_hi), into=gm),
            pushforward_p1_formula(law_m, u_m),
        )
    )

    # [P_k] may involve m_k, which the universal law at N <= depth lacks
    depth = 3
    law_t = law_u if N > depth else make_law("universal", depth + 1)
    sm_t = SpecializationMap.to_multiplicative(law_t)
    tc_u = tower_classes(law_t, depth)
    tc_m = tower_classes(law_m, depth)
    point_m = law_m.geometry_context([])
    for i in range(depth + 1):
        items.append(
            _cmp(
                f"tower-P{i}",
                specialize(sm_t, tc_u[i], into=point_m),
                tc_m[i],
            )
        )

    return Report(f"conner-floyd[N={N}]", tuple(items))


def _cmp(name, got, expected):
    detail = difference_detail(got, expected)
    return CheckItem(name, not detail, detail, str(expected), str(got))


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
