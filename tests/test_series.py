import random
from fractions import Fraction

import pytest

from occ.fgl import make_law
from occ.series import (
    CalculusError,
    Context,
    ContextMismatch,
    NotAUnit,
    NotDivisible,
    NotSymmetric,
    Series,
    SubstitutionError,
    Var,
    elementary_symmetric,
    exact_divide,
    exp_of,
    first_difference,
    invert_unit,
    log1p_of,
    symmetric_reduce,
)


def ctx2(n=6):
    return Context((Var("x", 1, True), Var("y", 1, True)), n)


def test_constants_and_vars():
    c = ctx2()
    x = c.var("x")
    assert c.const(0).is_zero
    assert c.one().constant_term == 1
    assert c.const(Fraction(3, 6)).constant_term == Fraction(1, 2)
    assert (x - x).is_zero
    with pytest.raises(CalculusError):
        c.var("nope")


def test_truncation_drops_heavy_terms():
    c = ctx2(3)
    x = c.var("x")
    assert (x**4).is_zero
    assert str(x**3) == "x^3"
    p = (1 + x) ** 5
    # binomial coefficients survive only to weight 3
    assert p.terms[(0, 0)] == 1
    assert p.terms[(1, 0)] == 5
    assert p.terms[(2, 0)] == 10
    assert p.terms[(3, 0)] == 10
    assert (4, 0) not in p.terms


def test_mul_is_exact_and_commutative():
    rng = random.Random(11)
    c = ctx2(5)
    x, y = c.var("x"), c.var("y")
    for _ in range(20):
        a = sum((rng.randint(-3, 3) * x**i * y**j for i in range(3) for j in range(2)), c.zero())
        b = sum((rng.randint(-3, 3) * x**i * y**j for i in range(2) for j in range(3)), c.zero())
        assert (a * b - b * a).is_zero
        assert ((a + b) * (a - b) - (a * a - b * b)).is_zero


def test_canonical_string_form():
    c = ctx2()
    x, y = c.var("x"), c.var("y")
    assert str(c.zero()) == "0"
    assert str(c.one() - x**2) == "1 - x^2"
    assert str(2 * x * y - y) == "-y + 2*x*y"
    assert str(c.const(Fraction(-1, 2)) * x) == "-1/2*x"


def test_json_form():
    c = ctx2()
    x = c.var("x")
    assert c.zero().to_json_obj() == {"terms": []}
    obj = (1 - x**2).to_json_obj()
    assert obj == {
        "terms": [
            {"monomial": {}, "coeff": "1"},
            {"monomial": {"x": 2}, "coeff": "-1"},
        ]
    }


def test_first_difference_reports_smallest_term():
    c = ctx2()
    x, y = c.var("x"), c.var("y")
    a = 1 + x + x * y
    b = 1 + x + 2 * x * y
    mono, ca, cb = first_difference(a, b)
    assert mono == "x*y"
    assert (ca, cb) == (1, 2)
    assert first_difference(a, a) is None


def test_context_mismatch_raises():
    a = ctx2().var("x")
    b = ctx2(5).var("x")
    with pytest.raises(ContextMismatch, match="incompatible contexts"):
        a + b


@pytest.mark.parametrize("truncation", [0, True, 2.0])
def test_context_rejects_bad_truncation(truncation):
    with pytest.raises(CalculusError, match="positive integer"):
        ctx2(truncation)


def test_invert_unit():
    c = ctx2()
    x = c.var("x")
    u = 1 + x
    v = invert_unit(u)
    assert (u * v - 1).is_zero
    w = invert_unit(c.const(2) + x * 3)
    assert ((c.const(2) + x * 3) * w - 1).is_zero
    with pytest.raises(NotAUnit, match="not a unit"):
        invert_unit(x)
    # a non-nilpotent generator m has weight 0: 1 + m*x is a unit, but
    # 1 + m is not, and neither is m + m*x
    cm = Context((Var("x", 1, True), Var("m", -1, False)), 5)
    x, m = cm.var("x"), cm.var("m")
    assert (invert_unit(1 + m * x) * (1 + m * x) - 1).is_zero
    for bad in (1 + m, m + m * x, 2 - m * m + x):
        with pytest.raises(NotAUnit, match="not a unit"):
            invert_unit(bad)
    law = make_law("universal", 5)
    with pytest.raises(NotAUnit, match="not a unit"):
        invert_unit(law.context.one() + law.context.var("m1"))


def test_exact_divide_and_failure():
    c = ctx2()
    x, y = c.var("x"), c.var("y")
    num = (x + y) * (1 + x * y - y**2)
    q = exact_divide(num, x + y)
    assert (q - (1 + x * y - y**2)).is_zero
    with pytest.raises(NotDivisible, match="not divisible"):
        exact_divide(x * x + y, x + y)


def test_exact_divide_random_roundtrip():
    rng = random.Random(5)
    c = ctx2(6)
    x, y = c.var("x"), c.var("y")
    for _ in range(15):
        den = x + y * rng.randint(1, 3) + x * y * rng.randint(-2, 2)
        quo = 1 + rng.randint(-3, 3) * x + rng.randint(-3, 3) * y**2
        assert (exact_divide(den * quo, den) - quo).is_zero


def test_elementary_symmetric():
    c = Context(tuple(Var(f"x{i}", 1, True) for i in (1, 2, 3)), 6)
    xs = [c.var(f"x{i}") for i in (1, 2, 3)]
    e1 = elementary_symmetric(xs, 1, one=c.one())
    e2 = elementary_symmetric(xs, 2, one=c.one())
    e3 = elementary_symmetric(xs, 3, one=c.one())
    assert (e1 - (xs[0] + xs[1] + xs[2])).is_zero
    assert (e3 - xs[0] * xs[1] * xs[2]).is_zero
    # Newton: p2 = e1^2 - 2 e2
    p2 = xs[0] ** 2 + xs[1] ** 2 + xs[2] ** 2
    assert (e1 * e1 - 2 * e2 - p2).is_zero
    # out of range: e_k vanishes above the count, a negative k is an error
    assert elementary_symmetric(xs[:2], 3).is_zero
    assert elementary_symmetric([], 1, one=c.one()).is_zero
    assert elementary_symmetric([], 0, one=c.one()) == c.one()
    with pytest.raises(CalculusError, match="non-negative"):
        elementary_symmetric(xs[:2], -1)
    with pytest.raises(CalculusError, match="needs `one`"):
        elementary_symmetric([], 0)


def test_symmetric_reduce_roundtrip():
    """A symmetric polynomial equals its elementary-symmetric form evaluated back."""
    base = Context(
        (Var("x1", 1, True), Var("x2", 1, True), Var("e1", 1, True), Var("e2", 2, True)),
        6,
    )
    x1, x2 = base.var("x1"), base.var("x2")
    p = x1**2 + x2**2 + 3 * x1 * x2 + x1 + x2
    red = symmetric_reduce(p, ["x1", "x2"], ["e1", "e2"])
    back = red.substitute({"e1": x1 + x2, "e2": x1 * x2}, into=base)
    assert (back - p).is_zero
    with pytest.raises(NotSymmetric, match="not symmetric"):
        symmetric_reduce(x1, ["x1", "x2"], ["e1", "e2"])


def test_exp_log_roundtrip():
    c = ctx2(8)
    x = c.var("x")
    assert (log1p_of(exp_of(x) - 1) - x).is_zero
    assert (exp_of(log1p_of(x)) - (1 + x)).is_zero
    coeff = exp_of(x).terms[(5, 0)]
    assert coeff == Fraction(1, 120)


def test_exp_and_log1p_reject_non_nilpotent_arguments():
    # m1 has weight 0, so its powers never vanish under truncation
    m1 = make_law("universal", 3).context.var("m1")
    for fn in (exp_of, log1p_of):
        with pytest.raises(SubstitutionError, match="non-nilpotent substitution"):
            fn(m1)


def test_substitute_basics():
    c = ctx2()
    x, y = c.var("x"), c.var("y")
    p = 1 + x * y + x**2
    q = p.substitute({"x": y}, into=c)
    assert (q - (1 + y * y + y * y)).is_zero
    with pytest.raises(SubstitutionError, match="non-nilpotent substitution"):
        p.substitute({"x": c.one()}, into=c)


def test_substitute_rejects_image_of_lower_weight():
    # x -> m1 is no ring map at N = 2: x*x*x is zero there, but the product
    # of three images of x is m1^3
    c = Context((Var("x", 1, True), Var("z", 2, True), Var("m1", 1, False)), 2)
    x, z, m1 = c.var("x"), c.var("z"), c.var("m1")
    assert (x * x * x).is_zero
    assert not (m1 * m1 * m1).is_zero
    with pytest.raises(SubstitutionError, match="non-nilpotent substitution"):
        (x * x * x).substitute({"x": m1}, into=c)
    with pytest.raises(SubstitutionError, match="non-nilpotent substitution"):
        z.substitute({"z": x + z}, into=c)
    # zero, and images of weight at least the variable's degree, are accepted
    assert z.substitute({"z": c.zero()}, into=c).is_zero
    assert z.substitute({"z": x * x + m1 * z}, into=c) == x * x + m1 * z
    assert (x * x * x).substitute({"x": m1 * x}, into=c).is_zero


def test_to_context_retruncates():
    hi = ctx2(8)
    lo = ctx2(4)
    x = hi.var("x")
    p = (1 + x) ** 8
    q = p.to_context(lo)
    assert q.context is lo
    assert all(lo.weight(m) <= 4 for m in q.terms)
    assert q.terms[(4, 0)] == 70


def test_weighted_variables():
    """Variables may carry degree > 1; weight counts degree times exponent."""
    c = Context((Var("a", 1, True), Var("b", 2, True)), 4)
    a, b = c.var("a"), c.var("b")
    assert (b**3).is_zero  # weight 6 > 4
    assert not (a**2 * b).is_zero  # weight 4
    assert (a * b**2).is_zero  # weight 5


def test_non_nilpotent_generators_never_truncate():
    c = Context((Var("x", 1, True), Var("m", -1, False)), 3)
    x, m = c.var("x"), c.var("m")
    p = m**7 * x
    assert not p.is_zero
    assert (m**7 * x**4).is_zero


def test_pow_edge_cases():
    c = ctx2()
    x = c.var("x")
    assert ((1 + x) ** 0 - 1).is_zero
    with pytest.raises(CalculusError):
        x ** (-1)
    with pytest.raises(CalculusError):
        x ** Fraction(1, 2)
