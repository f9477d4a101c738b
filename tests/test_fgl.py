from fractions import Fraction

import pytest

from occ.fgl import FormalGroupLaw, custom_law, make_law
from occ.series import CalculusError
from occ.specialization import SpecializationMap, specialize


def test_additive_law_is_x_plus_y():
    law = make_law("additive", 6)
    ctx = law.context
    x, y = ctx.var("x"), ctx.var("y")
    assert (law.F - (x + y)).is_zero


def test_multiplicative_law_terms():
    law = make_law("multiplicative", 6)
    assert law.coefficient(1, 1).constant_term == -1
    assert law.coefficient(2, 1).is_zero
    assert law.coefficient(1, 0).constant_term == 1


def test_axioms_all_laws():
    for kind in ("additive", "multiplicative", "universal"):
        rep = make_law(kind, 6).check_axioms()
        assert rep.passed, "\n".join(rep.lines())


def test_axioms_catch_broken_law():
    law = make_law("additive", 4)
    ctx = law.context
    x, y = ctx.var("x"), ctx.var("y")
    bad = custom_law(x + y + x * x)
    rep = bad.check_axioms()
    names = {i.name: i.passed for i in rep.items}
    assert not names["unit"]
    assert not rep.passed


def test_inverse_all_laws():
    for kind in ("additive", "multiplicative", "universal"):
        law = make_law(kind, 6)
        x = law.context.var("x")
        assert law.apply(x, law.formal_inverse()).is_zero


def test_multiplicative_inverse_closed_form():
    # iota(x) = -x/(1-x) = -(x + x^2 + ...)
    law = make_law("multiplicative", 7)
    x = law.context.var("x")
    expected = -sum((x**i for i in range(1, 8)), law.context.zero())
    assert (law.formal_inverse() - expected).is_zero


def test_n_series_composition_cancels():
    for kind in ("additive", "multiplicative", "universal"):
        law = make_law(kind, 6)
        x = law.context.var("x")
        for k in range(1, 5):
            lhs = law.apply(law.sum_n_at(k, x), law.sum_n_at(-k, x))
            assert lhs.is_zero, f"{kind}, k={k}"


def test_n_series_additivity():
    law = make_law("universal", 5)
    x = law.context.var("x")
    two = law.sum_n_at(2, x)
    three = law.apply(two, x)
    assert (three - law.sum_n_at(3, x)).is_zero
    assert law.sum_n_at(0, x).is_zero
    assert (law.sum_n_at(1, x) - x).is_zero


LAWS = ("additive", "multiplicative", "universal")


@pytest.mark.parametrize("N", range(2, 7))
@pytest.mark.parametrize("kind", LAWS)
def test_n_series_is_a_ring_map(kind, N):
    law = make_law(kind, N)
    x = law.context.var("x")
    assert law.exp().substitute({"x": law.log()}) == x
    sums = {n: law.formal_sum_n(n) for n in range(-9, 10)}
    assert sums[1] == x and sums[0].is_zero and sums[-1] == law.formal_inverse()
    for m in range(-3, 4):
        for n in range(-3, 4):
            assert law.sum_n_at(m, sums[n]) == sums[m * n], (m, n)
            assert law.apply(sums[m], sums[n]) == sums[m + n], (m, n)


@pytest.mark.parametrize("N", range(2, 7))
@pytest.mark.parametrize("kind", LAWS)
def test_law_primitives_restrict_from_one_order_up(kind, N):
    law = make_law(kind, N)
    wide = law.at_truncation(N + 1)

    def down(s):
        return s.to_context(law.context)

    assert down(wide.log()) == law.log()
    assert down(wide.exp()) == law.exp()
    assert down(wide.formal_inverse()) == law.formal_inverse()
    for n in (-3, 0, 2, 5):
        assert down(wide.formal_sum_n(n)) == law.formal_sum_n(n)


def test_inverse_of_a_non_group_law_raises():
    ctx = make_law("additive", 4).context
    x, y = ctx.var("x"), ctx.var("y")
    with pytest.raises(CalculusError, match="law has no logarithm"):
        custom_law(x + y + x * x).formal_inverse()


# -- universal-law coefficients against an independent oracle ------------------------


def _lagrange_inversion_oracle(order):
    """F(x, y) for exp/log built from scratch in sympy.

    log(z) = z + m1 z^2 + ... ; its compositional inverse comes from the
    Lagrange inversion formula exp_n = (1/n) [z^{n-1}] (z/log(z))^n, which is
    a different algorithm than the package's weight-by-weight solve.
    """
    import sympy

    z = sympy.Symbol("z")
    ms = sympy.symbols(f"m1:{order}")

    def cut_z(p):
        return sympy.Poly(
            {(k,): c for (k,), c in sympy.Poly(p, z).as_dict().items() if k < order},
            z,
        )

    logp = z + sum(ms[i] * z ** (i + 2) for i in range(order - 1))
    unit = sympy.Poly(logp / sympy.Poly(z, z), z)  # 1 + m1 z + ...
    # reciprocal of the unit mod z^order, solved degree by degree
    recip = sympy.Poly(1, z)
    for _ in range(order):
        recip = cut_z(2 * recip - cut_z(recip * recip) * unit)
    assert cut_z(recip * unit) == sympy.Poly(1, z)
    exp_coeffs = {}
    power = sympy.Poly(1, z)
    for n in range(1, order + 1):
        power = cut_z(power * recip)  # (z/log z)^n
        exp_coeffs[n] = power.as_dict().get((n - 1,), sympy.S.Zero) / n

    x, y = sympy.symbols("x y")

    def cut_xy(p):
        return sympy.Poly(
            {k: c for k, c in p.as_dict().items() if k[0] + k[1] <= order}, x, y
        )

    logsum = sympy.Poly(logp.subs(z, x) + logp.subs(z, y), x, y)
    F = sympy.Poly(0, x, y)
    power = sympy.Poly(1, x, y)
    for n in range(1, order + 1):
        power = cut_xy(power * logsum)
        F = F + power * exp_coeffs[n]
    return F.as_expr(), x, y, ms


def _series_to_m_dict(s, gen_names):
    names = s.context.names
    idx = [names.index(g) for g in gen_names]
    out = {}
    for mono, c in s.sorted_terms():
        key = tuple(mono[i] for i in idx)
        out[key] = c
    return out


def test_universal_coefficients_match_sympy_oracle():
    import sympy

    order = 6
    law = make_law("universal", order)
    F, x, y, ms = _lagrange_inversion_oracle(order)
    gen_names = [f"m{i}" for i in range(1, order)]
    poly = sympy.Poly(F, x, y)
    for i in range(0, order + 1):
        for j in range(0, order + 1 - i):
            got = _series_to_m_dict(law.coefficient(i, j), gen_names)
            expr = poly.coeff_monomial(x**i * y**j)
            want = {}
            if expr != 0:
                mp = sympy.Poly(expr, *ms)
                for mono, c in mp.terms():
                    want[tuple(mono)] = Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
            assert got == want, f"coefficient of x^{i} y^{j}"


def test_universal_frozen_coefficients():
    """Low-order coefficients, worked out by hand from exp(log x + log y)."""
    law = make_law("universal", 6)
    gens = ["m1", "m2", "m3", "m4", "m5"]

    def d(s):
        return {k: v for k, v in _series_to_m_dict(s, gens).items() if v}

    assert d(law.coefficient(1, 1)) == {(1, 0, 0, 0, 0): -2}
    assert d(law.coefficient(2, 1)) == {(2, 0, 0, 0, 0): 4, (0, 1, 0, 0, 0): -3}
    assert d(law.coefficient(1, 2)) == d(law.coefficient(2, 1))
    assert d(law.coefficient(1, 3)) == {
        (3, 0, 0, 0, 0): -8,
        (1, 1, 0, 0, 0): 12,
        (0, 0, 1, 0, 0): -4,
    }
    assert d(law.coefficient(2, 2)) == {
        (3, 0, 0, 0, 0): -20,
        (1, 1, 0, 0, 0): 24,
        (0, 0, 1, 0, 0): -6,
    }


def test_universal_log_roundtrip():
    law = make_law("universal", 6)
    ctx = law.context
    x, y = ctx.var("x"), ctx.var("y")
    logs = law.log()
    lhs = logs.substitute({"x": law.F}, into=ctx)
    rhs = logs + logs.substitute({"x": y}, into=ctx)
    assert (lhs - rhs).is_zero


# -- specializations of the universal law ---------------------------------------------


def test_specialize_to_additive():
    law = make_law("universal", 8)
    target = make_law("additive", 8)
    sm = SpecializationMap.to_additive(law)
    assert (specialize(sm, law.F, into=target.context) - target.F).is_zero


def test_specialize_to_multiplicative():
    law = make_law("universal", 8)
    target = make_law("multiplicative", 8)
    sm = SpecializationMap.to_multiplicative(law)
    assert (specialize(sm, law.F, into=target.context) - target.F).is_zero
    got = specialize(sm, law.formal_inverse(), into=target.context)
    assert (got - target.formal_inverse()).is_zero


def test_unknown_kind_rejected():
    with pytest.raises(CalculusError):
        make_law("elliptic", 4)


# -- re-expansion at other truncation orders ------------------------------------------


def test_at_truncation_restricts_consistently():
    for kind in ("additive", "multiplicative", "universal"):
        law = make_law(kind, 4)
        wide = law.at_truncation(7)
        assert wide.truncation == 7
        back = wide.F.to_context(law.context)
        assert (back - law.F).is_zero, kind


def test_at_truncation_universal_keeps_generators():
    law = make_law("universal", 4)
    wide = law.at_truncation(8)
    assert set(law.coefficient_names) == set(wide.coefficient_names)


def test_at_truncation_custom_law_fails():
    law = make_law("additive", 4)
    ctx = law.context
    c = custom_law(ctx.var("x") + ctx.var("y"))
    with pytest.raises(CalculusError):
        c.at_truncation(6)


# -- built-in laws are shared values ---------------------------------------------------


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "universal"])
def test_built_in_laws_are_shared(kind):
    law = make_law(kind, 5)
    assert make_law(kind, 5) is law
    assert law.formal_inverse() is make_law(kind, 5).formal_inverse()
    wide = law.at_truncation(7)
    assert law.at_truncation(7) is wide
    assert wide.at_truncation(5) is law
    if kind != "universal":  # a raised universal law keeps its generators m1..m4
        assert wide is make_law(kind, 7)


def test_bad_law_arguments_raise_after_a_valid_build():
    for kind in ("additive", "multiplicative", "universal"):
        make_law(kind, 1)
        for truncation in (True, 0, -1):  # True == 1 must not find the law at 1
            with pytest.raises(CalculusError, match="truncation"):
                make_law(kind, truncation)
    for kind in ("additive", "multiplicative"):
        with pytest.raises(CalculusError, match="truncation"):
            make_law(kind, 1.0)
    for kind in ("elliptic", "Additive", None):
        with pytest.raises(CalculusError, match="unknown law kind"):
            make_law(kind, 1)
