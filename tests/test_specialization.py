from fractions import Fraction
from math import comb

import pytest

from occ.bundles import SplitBundle
from occ.fgl import make_law
from occ.series import (
    CalculusError,
    exp_of,
    first_difference,
    log1p_of,
)
from occ.oracles import k_chi_oracle
from occ.specialization import (
    SpecializationMap,
    ch_a,
    ch_m,
    conner_floyd_check,
    grr_check,
    k_euler_characteristic,
    specialize,
    todd,
    todd_factor,
    twist_class,
)


# -- specialization maps -------------------------------------------------------------


def test_specialization_assignments():
    law = make_law("universal", 6)
    sm = SpecializationMap.to_multiplicative(law)
    assert sm.assignment["m1"] == Fraction(1, 2)
    assert sm.assignment["m4"] == Fraction(1, 5)
    sa = SpecializationMap.to_additive(law)
    assert set(sa.assignment.values()) == {Fraction(0)}


def test_specialize_drops_generators():
    law = make_law("universal", 5)
    sm = SpecializationMap.to_multiplicative(law)
    out = specialize(sm, law.F)
    assert set(out.context.names) == {law.x, law.y}
    law_m = make_law("multiplicative", 5)
    assert first_difference(out, law_m.F.substitute({}, into=out.context)) is None


# -- K-theory side --------------------------------------------------------------------


def test_line_class_geometric_series():
    law = make_law("multiplicative", 6)
    ctx = law.geometry_context(["u"])
    u = ctx.var("u")
    cls = twist_class(law, u, 1)
    assert cls.constant_term == 1
    assert (cls * (1 - u) - 1).is_zero


def test_twist_class_tensor_rule():
    law = make_law("multiplicative", 6)
    ctx = law.geometry_context(["u"])
    u = ctx.var("u")
    assert (twist_class(law, u, 0) - 1).is_zero
    assert twist_class(law, u, 1) == 1 - law.inverse_at(u)
    assert (twist_class(law, u, -1) - (1 - u)).is_zero
    for k in (-2, 2, 3):
        lhs = twist_class(law, u, k) * twist_class(law, u, 1)
        assert lhs == twist_class(law, u, k + 1), k


def test_ch_m_additive_on_sums_multiplicative_on_lines():
    law = make_law("multiplicative", 6)
    ctx = law.geometry_context(["u", "v"])
    u, v = ctx.var("u"), ctx.var("v")
    e = SplitBundle(law, [u])
    f = SplitBundle(law, [v])
    assert ch_m(e.direct_sum(f)) == ch_m(e) + ch_m(f)
    tensor = SplitBundle(law, [law.apply(u, v)])
    assert ch_m(tensor) == ch_m(e) * ch_m(f)
    assert ch_m(e) == twist_class(law, u, 1)


def test_ch_a_exponential_on_lines():
    law = make_law("additive", 6)
    ctx = law.geometry_context(["u", "v"])
    u, v = ctx.var("u"), ctx.var("v")
    e = SplitBundle(law, [u])
    f = SplitBundle(law, [v])
    assert (ch_a(e) - exp_of(-u)).is_zero
    tensor = SplitBundle(law, [law.apply(u, v)])
    assert (ch_a(tensor) - ch_a(e) * ch_a(f)).is_zero
    both = e.direct_sum(f)
    assert (ch_a(both) - ch_a(e) - ch_a(f)).is_zero
    assert ch_a(both).constant_term == 2


# -- Todd classes ---------------------------------------------------------------------


def test_todd_of_trivial_is_minus_one_per_rank():
    law = make_law("additive", 6)
    ctx = law.geometry_context([])
    for r in (1, 2, 3):
        e = SplitBundle(law, [ctx.zero()] * r)
        assert (todd(e) - (-1) ** r).is_zero, r


def test_todd_factor_frozen_coefficients():
    # -(1 + u/2 + u^2/12 + 0 u^3 - u^4/720 + ...)
    law = make_law("additive", 8)
    ctx = law.geometry_context(["u"])
    f = todd_factor(ctx.var("u"))
    expect = {
        0: Fraction(-1),
        1: Fraction(-1, 2),
        2: Fraction(-1, 12),
        3: Fraction(0),
        4: Fraction(1, 720),
        5: Fraction(0),
        6: Fraction(-1, 30240),
    }
    for k, c in expect.items():
        assert f.partial_coefficient({"u": k}).constant_term == c, k


def test_todd_multiplicative_on_sums():
    law = make_law("additive", 6)
    ctx = law.geometry_context(["u", "v"])
    e = SplitBundle(law, [ctx.var("u")])
    f = SplitBundle(law, [ctx.var("v")])
    lhs = todd(e.direct_sum(f))
    assert (lhs - todd(e) * todd(f)).is_zero


def test_todd_twist_identities_at_n8():
    # the twisted first Chern classes are the multiplicative law's exp e_m
    # and log l_m with signs, so the law states them and both Todd inversions
    N = 8
    law_m = make_law("multiplicative", N)
    ctx = law_m.geometry_context(["u", "v"])
    u, v = ctx.var("u"), ctx.var("v")

    def e_m(s):
        return law_m.exp().substitute({"x": s}, into=ctx)

    def l_m(s):
        return law_m.log().substitute({"x": s}, into=ctx)

    # c1^t(u) = 1 - exp(u) is e_m(-u); c1^t'(u) = log(1 - u) is -l_m(u)
    assert 1 - exp_of(u) == e_m(-u)
    assert log1p_of(-u) == -l_m(u)

    # e_m turns sums into the multiplicative law, l_m turns it back into sums
    assert e_m(u + v) == law_m.apply(e_m(u), e_m(v))
    assert l_m(law_m.apply(u, v)) == l_m(u) + l_m(v)

    # Td(u) = u/(exp(-u) - 1) is -u/e_m(u), and Td(l_m(v)) is -l_m(v)/v
    assert todd_factor(u) * e_m(u) == -u
    assert todd_factor(l_m(v)) * v == -l_m(v)


# -- Euler characteristics -------------------------------------------------------------


def test_chi_oracle_closed_forms():
    assert k_chi_oracle(1, 7) == 1
    assert k_chi_oracle(2, 3) == 4
    assert k_chi_oracle(3, 2) == 6
    assert k_chi_oracle(2, -1) == 0
    assert k_chi_oracle(2, -2) == -1
    assert k_chi_oracle(3, -3) == 1
    with pytest.raises(CalculusError):
        k_chi_oracle(0, 1)


def test_chi_table_against_binomial():
    for r in (2, 3, 4):
        for k in range(6):
            chi = k_euler_characteristic(r, k)
            assert chi == comb(k + r - 1, r - 1), (r, k)
            assert chi == k_chi_oracle(r, k), (r, k)


def test_chi_negative_twists():
    assert k_euler_characteristic(2, -1) == 0
    assert k_euler_characteristic(2, -2) == -1
    assert k_euler_characteristic(3, -1) == 0
    assert k_euler_characteristic(3, -3) == 1


def test_grr_grid():
    for r in (2, 3):
        for k in range(5):
            rep = grr_check(r, k)
            assert rep.passed, str(rep)
            for item in rep.items:
                assert item.expected == item.actual


def test_grr_negative_twist():
    rep = grr_check(2, -2)
    assert rep.passed
    assert rep.items[0].actual == "-1"


def test_grr_rejects_rank_one():
    with pytest.raises(CalculusError, match="r must be >= 2"):
        grr_check(1, 0)


# -- the specialization battery ---------------------------------------------------------


def test_conner_floyd_battery():
    rep = conner_floyd_check(truncation=6, seed=0)
    assert rep.passed, "\n".join(l for l in rep.lines() if l.startswith("FAIL"))
    names = [i.name for i in rep.items]
    assert "law" in names
    assert "p1-pushforward" in names
    assert "tower-P3" in names


@pytest.mark.parametrize("truncation", [1, 2, 3])
def test_conner_floyd_battery_below_tower_depth(truncation):
    # the depth-3 tower needs m_3, which the universal law at N <= 3 lacks;
    # at N = 1 the raised law is at depth + 1 = 4, above N + 2 = 3
    rep = conner_floyd_check(truncation=truncation, seed=0)
    assert rep.passed, "\n".join(l for l in rep.lines() if l.startswith("FAIL"))
