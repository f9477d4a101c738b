import random

import pytest

from occ.bundles import SplitBundle, whitney_check
from occ.fgl import custom_law, make_law
from occ.series import CalculusError, ContextMismatch


def bundle(law, ctx, names):
    return SplitBundle(law, [ctx.var(n) for n in names])


def test_chern_classes_are_elementary_symmetric():
    law = make_law("additive", 6)
    ctx = law.geometry_context(["a", "b", "c"])
    a, b, c = ctx.var("a"), ctx.var("b"), ctx.var("c")
    e = bundle(law, ctx, ["a", "b", "c"])
    assert (e.chern(1) - (a + b + c)).is_zero
    assert (e.chern(2) - (a * b + a * c + b * c)).is_zero
    assert (e.chern(3) - a * b * c).is_zero
    assert e.chern(4).is_zero
    assert (e.euler() - e.chern(3)).is_zero
    assert e.chern(0).constant_term == 1


def test_total_chern_sums_all():
    law = make_law("multiplicative", 5)
    ctx = law.geometry_context(["a", "b"])
    e = bundle(law, ctx, ["a", "b"])
    total = e.total_chern()
    assert (total - (1 + e.chern(1) + e.chern(2))).is_zero


def test_whitney_hand_case():
    law = make_law("universal", 6)
    ctx = law.geometry_context(["a", "b", "c"])
    e = bundle(law, ctx, ["a"])
    f = bundle(law, ctx, ["b", "c"])
    g = e.direct_sum(f)
    lhs = sum(g.chern(k) for k in range(g.rank + 1))
    assert (lhs - e.total_chern() * f.total_chern()).is_zero


def test_whitney_randomized_suite():
    rep = whitney_check(truncation=6, cases=50, seed=0)
    assert len(rep.items) == 50
    assert rep.passed, "\n".join(line for line in rep.lines() if line.startswith("FAIL"))


def test_whitney_other_seed():
    rep = whitney_check(truncation=5, cases=12, seed=99)
    assert rep.passed


def test_dual_is_involution():
    for kind in ("additive", "multiplicative", "universal"):
        law = make_law(kind, 6)
        ctx = law.geometry_context(["a", "b"])
        e = bundle(law, ctx, ["a", "b"])
        dd = e.dual().dual()
        for x, y in zip(dd.roots, e.roots):
            assert (x - y).is_zero, kind


def test_twist_by_zero_line_is_identity():
    law = make_law("universal", 5)
    ctx = law.geometry_context(["a", "b"])
    e = bundle(law, ctx, ["a", "b"])
    t = e.twist_by_line(ctx.zero())
    for x, y in zip(t.roots, e.roots):
        assert (x - y).is_zero


def test_twist_composes_like_tensor():
    """Twisting by L then by M equals twisting by L (x) M."""
    law = make_law("universal", 5)
    ctx = law.geometry_context(["a", "u", "v"])
    u, v = ctx.var("u"), ctx.var("v")
    e = bundle(law, ctx, ["a"])
    double = e.twist_by_line(u).twist_by_line(v)
    merged = e.twist_by_line(law.apply(u, v))
    assert (double.roots[0] - merged.roots[0]).is_zero


def test_dual_twist_euler_rank_one():
    # e(L* (x) M) = F(iota(u), v): the standard difference class
    law = make_law("universal", 6)
    ctx = law.geometry_context(["u", "v"])
    u, v = ctx.var("u"), ctx.var("v")
    e = bundle(law, ctx, ["u"]).dual().twist_by_line(v)
    assert (e.euler() - law.apply(law.inverse_at(u), v)).is_zero


def test_additive_dual_chern_signs():
    # additive law: c_k(E*) = (-1)^k c_k(E)
    law = make_law("additive", 6)
    ctx = law.geometry_context(["a", "b", "c"])
    e = bundle(law, ctx, ["a", "b", "c"])
    d = e.dual()
    for k in range(4):
        assert (d.chern(k) - e.chern(k) * (-1) ** k).is_zero


def test_relation_poly_structure():
    law = make_law("multiplicative", 6)
    ctx = law.geometry_context(["a", "b"])
    e = bundle(law, ctx, ["a", "b"])
    f = e.pb_relation_poly("t")
    ext = f.context
    t = ext.var("t")
    # leading coefficient (-1)^rank and value at iota(root) is zero
    assert f.partial_coefficient({"t": 2}).constant_term == 1
    for root in e.roots:
        tau = law.inverse_at(root).substitute({}, into=ext)
        assert f.substitute({"t": tau}, into=ext).is_zero


def test_relation_matches_coefficients():
    law = make_law("universal", 5)
    ctx = law.geometry_context(["a", "b"])
    e = bundle(law, ctx, ["a", "b"])
    f = e.pb_relation_poly("t")
    coeffs = e.relation_coefficients()
    ext = f.context
    t = ext.var("t")
    rebuilt = sum(
        (c.substitute({}, into=ext) * t**i for i, c in enumerate(coeffs)), ext.zero()
    )
    assert (f - rebuilt).is_zero


def test_random_roots_have_vanishing_high_chern():
    rng = random.Random(3)
    law = make_law("multiplicative", 6)
    ctx = law.geometry_context(["a", "b"])
    a, b = ctx.var("a"), ctx.var("b")
    for _ in range(10):
        roots = [law.apply(a, b), law.inverse_at(a), b][: rng.randint(1, 3)]
        e = SplitBundle(law, roots)
        assert e.chern(e.rank + 1).is_zero
        assert e.chern(e.rank + 3).is_zero


def test_bundle_rejects_bad_roots():
    law = make_law("additive", 5)
    ctx = law.geometry_context(["a"])
    with pytest.raises(CalculusError, match="zero constant term"):
        SplitBundle(law, [ctx.one()])
    with pytest.raises(CalculusError):
        SplitBundle(law, [])


def test_bundles_reject_a_second_context():
    law = make_law("universal", 4)
    ctx, other = law.geometry_context(["a", "b"]), law.geometry_context(["c"])
    a, b, c = ctx.var("a"), ctx.var("b"), other.var("c")
    e = SplitBundle(law, [a, b])
    with pytest.raises(ContextMismatch, match="incompatible contexts"):
        SplitBundle(law, [a, c])
    with pytest.raises(ContextMismatch, match="incompatible contexts"):
        e.twist_by_line(c)
    with pytest.raises(ContextMismatch, match="incompatible contexts"):
        e.direct_sum(SplitBundle(law, [c]))


def test_direct_sum_over_two_laws_names_the_laws():
    # two custom_law calls on one series make two laws over one context
    F = make_law("multiplicative", 4).F
    first, second = custom_law(F), custom_law(F)
    ctx = first.geometry_context(["a", "b"])
    e, f = bundle(first, ctx, ["a"]), bundle(second, ctx, ["b"])
    with pytest.raises(CalculusError, match="direct sum of bundles over different laws") as info:
        e.direct_sum(f)
    assert not isinstance(info.value, ContextMismatch)


def test_relation_poly_name_collision():
    law = make_law("additive", 5)
    ctx = law.geometry_context(["t", "u"])
    e = SplitBundle(law, [ctx.var("t"), ctx.var("u")])
    with pytest.raises(CalculusError, match="variable collision"):
        e.pb_relation_poly("t")
