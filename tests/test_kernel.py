"""The coefficient rule and the multiply-accumulate kernel of `occ.series`.

A coefficient is an `int` when its value is integral and a `Fraction` with
denominator other than 1 otherwise; it is never a float or a bool.
"""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from occ.bundles import SplitBundle
from occ.fgl import make_law
from occ.projective import ProjBundleRing, tower_classes
from occ.series import (
    Context,
    ContextMismatch,
    Series,
    Var,
    compose_coeffs,
    elementary_symmetric,
    exact_divide,
    exp_of,
    invert_unit,
    log1p_of,
    sum_of_products,
    symmetric_reduce,
)
from occ.specialization import SpecializationMap, specialize, twist_class


def assert_coefficients_canonical(obj):
    if isinstance(obj, (list, tuple)):
        for item in obj:
            assert_coefficients_canonical(item)
        return
    assert isinstance(obj, Series), type(obj)
    for m, c in obj.terms.items():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (m, c, type(c))


def test_every_coefficient_of_the_battery_is_int_or_proper_fraction():
    laws = {kind: make_law(kind, 4) for kind in ("additive", "multiplicative", "universal")}
    out = []
    for law in laws.values():
        out.append(tower_classes(law, 4))
        out.append(law.formal_inverse())
        out.append(law.log())
    uni = laws["universal"]
    for r in (2, 3):
        names = [f"u{i}" for i in range(1, r + 1)]
        ctx = uni.geometry_context(names)
        ring = ProjBundleRing(SplitBundle(uni, [ctx.var(n) for n in names]), "t")
        t = ring.var("t")
        out.append(ring.pushforward(ring.context.one()))
        out.append(ring.pushforward(t**r + t * ring.lift(ctx.var("u1"))))
    ctx = uni.geometry_context(["u"])
    u = ctx.var("u")
    unit = 1 + u + ctx.const(Fraction(1, 2)) * u * u
    out.append(exp_of(u * Fraction(2, 3)))
    out.append(invert_unit(unit))
    out.append(invert_unit(ctx.const(2) - u))
    out.append(exact_divide(unit * (u + u * u), u + u * u))
    sm = SpecializationMap.to_multiplicative(uni)
    out.append(specialize(sm, uni.F, into=laws["multiplicative"].context))
    out.append(specialize(sm, uni.log()))
    mctx = laws["multiplicative"].geometry_context(["u"])
    out.append(twist_class(laws["multiplicative"], mctx.var("u"), 1))
    assert_coefficients_canonical(out)


# -- properties of the kernel on small random series ---------------------------------

COEFFS = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def contexts(draw):
    """1-3 variables, the first nilpotent, weights 1-2, truncation 1-4."""
    vs = []
    for i in range(draw(st.integers(1, 3))):
        if i == 0 or draw(st.booleans()):
            vs.append(Var(f"x{i}", draw(st.integers(1, 2)), True))
        else:
            vs.append(Var(f"m{i}", -1, False))
    return Context(vs, draw(st.integers(1, 4)))


def series_in(draw, ctx, min_weight=0):
    monos = st.tuples(*[st.integers(0, 2)] * len(ctx.variables))
    terms = draw(st.dictionaries(monos, COEFFS, max_size=5))
    return ctx.series({m: c for m, c in terms.items() if ctx.weight(m) >= min_weight})


def truncated(p, bound):
    w = p.context.weight
    return Series(p.context, {m: c for m, c in p.terms.items() if w(m) <= bound}, _trusted=True)


PROPERTY = settings(max_examples=40, deadline=None)


@PROPERTY
@given(st.data())
def test_ring_axioms(data):
    ctx = data.draw(contexts())
    a, b, c = (series_in(data.draw, ctx) for _ in range(3))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * ctx.one() == a and (a + ctx.zero()) == a
    assert (a - a).is_zero
    assert_coefficients_canonical([a + b, a - b, a * b, a * Fraction(2, 3), a * 3])


@PROPERTY
@given(st.data())
def test_exact_divide_inverts_multiplication(data):
    ctx = data.draw(contexts())
    b = series_in(data.draw, ctx)
    if b.is_zero:
        b = ctx.one()
    a = truncated(series_in(data.draw, ctx), ctx.truncation - b.min_weight())
    q = exact_divide(a * b, b)
    assert q == a
    assert_coefficients_canonical(q)


@PROPERTY
@given(st.data(), COEFFS.filter(bool))
def test_invert_unit_is_an_inverse(data, c0):
    ctx = data.draw(contexts())
    a = series_in(data.draw, ctx, min_weight=1) + c0
    inv = invert_unit(a)
    assert inv * a == 1
    assert_coefficients_canonical(inv)


@PROPERTY
@given(st.data())
def test_substitute_is_a_ring_homomorphism(data):
    ctx = data.draw(contexts())
    # an image of weight at least the variable's own keeps the truncation ideal
    mapping = {
        v.name: series_in(data.draw, ctx, min_weight=v.degree)
        for v in ctx.variables
        if v.nilpotent
    }
    a, b = series_in(data.draw, ctx), series_in(data.draw, ctx)
    phi = lambda p: p.substitute(mapping, into=ctx)
    assert phi(a * b) == phi(a) * phi(b)
    assert phi(a + b) == phi(a) + phi(b)
    assert phi(ctx.one()) == 1
    assert_coefficients_canonical([phi(a), phi(a * b)])


def sum_of_products_by_double_loop(ctx, pairs):
    """sum a * b term by term over the dicts, dropping heavy monomials: the oracle."""
    out = {}
    for a, b in pairs:
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                m = tuple(ea + eb for ea, eb in zip(ma, mb))
                if ctx.weight(m) <= ctx.truncation:
                    out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


@PROPERTY
@given(st.data())
def test_sum_of_products_equals_the_double_loop(data):
    ctx = data.draw(contexts())
    # operands over mixed denominators, never zero, one of them shared by several pairs
    over = lambda: (series_in(data.draw, ctx) + 1) * Fraction(1, data.draw(st.sampled_from([2, 3, 4])))
    shared = over()
    pairs = []
    for _ in range(data.draw(st.integers(0, 4))):
        a, b = over(), data.draw(st.sampled_from([shared, over()]))
        pairs.append(data.draw(st.sampled_from([(a, b), (b, a), (ctx.zero(), b), (a, ctx.zero())])))
    want = sum_of_products_by_double_loop(ctx, pairs)
    for _ in range(2):  # the second time, every operand's cleared terms are cached
        got = sum_of_products(ctx, iter(pairs))
        assert got.context == ctx
        assert got.terms == want
        assert_coefficients_canonical(got)
    # a sum that cancels, and a pair from another context
    a, b = series_in(data.draw, ctx), series_in(data.draw, ctx)
    assert sum_of_products(ctx, [(a, b), (-a, b)]).is_zero
    foreign = ctx.with_truncation(ctx.truncation + 1).zero()
    for pair in ((a, foreign), (foreign, b)):
        with pytest.raises(ContextMismatch, match="incompatible contexts"):
            sum_of_products(ctx, pairs + [pair])


def test_sum_of_products_of_no_pairs_is_zero():
    ctx = Context([Var("x", 1, True)], 3)
    assert sum_of_products(ctx, []) == ctx.zero()


# -- exp, log and inverse weight by weight ----------------------------------------------


def exp_by_powers(s):
    """exp(s) as sum_k s^k / k!, one full product per power: the oracle."""
    return compose_coeffs(lambda k: Fraction(1, factorial(k)), s)


def log1p_by_powers(s):
    """log(1 + s) as sum_k (-1)^(k-1) s^k / k, one full product per power: the oracle."""
    return compose_coeffs(lambda k: Fraction((-1) ** (k - 1), k) if k else 0, s)


@PROPERTY
@given(st.data())
def test_exp_is_a_homomorphism(data):
    ctx = data.draw(contexts())
    a, b = (series_in(data.draw, ctx, min_weight=1) for _ in range(2))
    assert exp_of(a + b) == exp_of(a) * exp_of(b)


@PROPERTY
@given(st.data())
def test_exp_and_log1p_are_inverse(data):
    ctx = data.draw(contexts())
    s = series_in(data.draw, ctx, min_weight=1)
    assert log1p_of(exp_of(s) - 1) == s
    assert exp_of(log1p_of(s)) == 1 + s


@PROPERTY
@given(st.data())
def test_exp_and_log1p_equal_the_power_sums(data):
    ctx = data.draw(contexts())
    s = series_in(data.draw, ctx, min_weight=1)
    for fast, oracle in ((exp_of, exp_by_powers), (log1p_of, log1p_by_powers)):
        got, want = fast(s), oracle(s)
        assert got.terms == want.terms
        assert_coefficients_canonical([got, want])


# -- splitting by the powers of one variable, and substitution ------------------------------


@PROPERTY
@given(st.data())
def test_split_equals_partial_coefficients(data):
    ctx = data.draw(contexts())
    p = series_in(data.draw, ctx)
    name = data.draw(st.sampled_from(ctx.names))
    # the target: some of the other variables in any order, one maybe with
    # another degree, a new variable, and any truncation
    others = [v for v in ctx.variables if v.name != name]
    kept = data.draw(st.permutations(others))[: data.draw(st.integers(0, len(others)))]
    if kept and data.draw(st.booleans()):
        kept[0] = Var(kept[0].name, 3, True)
    into = Context(kept + [Var("z", 1, True)], data.draw(st.integers(1, 4)))
    count = data.draw(st.one_of(st.none(), st.integers(0, 3)))
    n = count if count is not None else 1 + max((m[ctx.index(name)] for m in p.terms), default=-1)
    try:
        want = [p.partial_coefficient({name: k}).to_context(into) for k in range(n)]
    except ContextMismatch:
        with pytest.raises(ContextMismatch, match="incompatible contexts"):
            p.split(name, into, count)
        return
    got = p.split(name, into, count)
    assert [g.context for g in got] == [into] * n
    assert [g.terms for g in got] == [w.terms for w in want]


def test_split_drops_terms_above_the_target_truncation():
    ctx = Context([Var("x", 1, True), Var("y", 2, True)], 6)
    x, y = ctx.var("x"), ctx.var("y")
    into = Context([Var("y", 2, True)], 2)
    parts = (x * y + x**2 * y**2 + y + 3).split("x", into)
    assert [str(c) for c in parts] == ["3 + y", "y", "0"]
    with pytest.raises(ContextMismatch, match="'x' not in target"):
        (x * y).split("y", into)


@st.composite
def wide_contexts(draw):
    """4 nilpotent variables of weight 1-2 and one weight-0 generator, truncation 2-5."""
    vs = [Var(f"x{i}", draw(st.integers(1, 2)), True) for i in range(4)]
    return Context(vs + [Var("m", -1, False)], draw(st.integers(2, 5)))


@PROPERTY
@given(st.data())
def test_substitute_equals_the_product_of_powers(data):
    ctx = data.draw(wide_contexts())
    mapped = data.draw(st.sampled_from([ctx.names[:3], ctx.names[1:4], ctx.names[:4]]))
    mapping = {n: series_in(data.draw, ctx, min_weight=ctx.variables[ctx.index(n)].degree)
               for n in mapped}
    p = series_in(data.draw, ctx)
    want = ctx.zero()
    for m, c in p.terms.items():
        term = ctx.const(c)
        for name, e in zip(ctx.names, m):
            term = term * (mapping[name] if name in mapping else ctx.var(name)) ** e
        want = want + term
    assert p.substitute(mapping, into=ctx) == want


@PROPERTY
@given(st.data())
def test_symmetric_reduce_recovers_a_polynomial_in_the_targets(data):
    """P(e_1..e_r, a) cut below its weight, written in the roots, reduces back to P."""
    r = data.draw(st.integers(1, 3))
    roots = [f"x{i}" for i in range(1, r + 1)]
    targets = [f"e{k}" for k in range(1, r + 1)]
    extra = data.draw(st.sampled_from([Var("a", 1, True), Var("m1", -1, False)]))
    full = Context([Var(n, 1, True) for n in roots]
                   + [Var(n, k, True) for k, n in enumerate(targets, 1)] + [extra], 30)
    monos = st.tuples(*[st.just(0)] * r, *[st.integers(0, 2)] * (r + 1))
    P = full.series(data.draw(st.dictionaries(monos, COEFFS.filter(bool), min_size=1, max_size=5)))
    top = max(map(full.weight, P.terms))
    assume(top >= 2)
    ctx = full.with_truncation(data.draw(st.integers(1, top - 1)))
    P = P.to_context(ctx)
    es = elementary_symmetric([ctx.var(n) for n in roots], None)
    p = P.substitute({n: es[k] for k, n in enumerate(targets, 1)})
    assert symmetric_reduce(p, roots, targets) == P
