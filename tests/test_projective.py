import random
from fractions import Fraction

import pytest

from occ.bundles import SplitBundle, _random_root
from occ.fgl import custom_law, make_law
from occ.oracles import h_polys, log_coordinate_pushforward, pushforward_p1_formula
from occ.projective import (
    ProjBundleRing,
    _random_element,
    class_of_proj_line,
    geometric_fgl_check,
    pb_relation_check,
    projection_formula_check,
    sequence_extend,
    tower_classes,
)
from occ.series import CalculusError, Context, ContextMismatch, Var, exact_divide


def rand_poly(rng, ctx, names, terms=4, max_pow=2):
    acc = ctx.const(Fraction(rng.randint(-2, 2)))
    for _ in range(terms):
        t = ctx.const(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for n in names:
            e = rng.randrange(max_pow + 1)
            if e:
                t = t * ctx.var(n) ** e
        acc = acc + t
    return acc


def standard_ring(kind, names, truncation=6, t="t"):
    law = make_law(kind, truncation)
    ctx = law.geometry_context(names)
    bundle = SplitBundle(law, [ctx.var(n) for n in names])
    return ProjBundleRing(bundle, t)


# -- reduce -----------------------------------------------------------------------


def test_reduce_bounds_t_degree_and_is_idempotent():
    rng = random.Random(11)
    for kind in ("additive", "multiplicative", "universal"):
        ring = standard_ring(kind, ["u1", "u2"])
        p = rand_poly(rng, ring.context, ["u1", "u2", "t"])
        q = ring.reduce(p)
        assert all(m[-1] < ring.rank for m in q.terms)
        assert (ring.reduce(q) - q).is_zero


def test_reduce_is_multiplicative_mod_relation():
    rng = random.Random(12)
    ring = standard_ring("universal", ["u1", "u2"], truncation=5)
    for _ in range(5):
        p = rand_poly(rng, ring.context, ["u1", "u2", "t"])
        q = rand_poly(rng, ring.context, ["u1", "u2", "t"])
        lhs = ring.reduce(p * q)
        rhs = ring.reduce(ring.reduce(p) * ring.reduce(q))
        assert (lhs - rhs).is_zero


def test_reduce_preserves_value_at_inverse_roots():
    # the relation vanishes at t = iota(x_i), so reduction cannot change
    # the value there
    rng = random.Random(13)
    for kind in ("multiplicative", "universal"):
        ring = standard_ring(kind, ["u1", "u2"])
        law = ring.law
        p = rand_poly(rng, ring.context, ["u1", "u2", "t"])
        q = ring.reduce(p)
        for root in ring.bundle.roots:
            tau = law.inverse_at(root)
            a = p.substitute({ring.t: tau}, into=ring.parent_context)
            b = q.substitute({ring.t: tau}, into=ring.parent_context)
            assert (a - b).is_zero, kind


def test_reduce_kills_relation_times_anything():
    rng = random.Random(14)
    ring = standard_ring("multiplicative", ["u1"])
    for _ in range(4):
        p = rand_poly(rng, ring.context, ["u1", "t"])
        assert ring.reduce(ring.relation * p).is_zero


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "universal"])
def test_reduce_is_the_normal_form(kind):
    # p - reduce(p) is a multiple of the relation and reduce(p) has t-degree
    # below the rank: the remainder of p on division by f(t)
    rng = random.Random(15)
    names = ["v1", "v2"]
    for N in (3, 4, 5):
        law = make_law(kind, N)
        ctx = law.geometry_context(names)
        vs = [ctx.var(n) for n in names]
        for r in range(1, min(3, N) + 1):
            roots = [_random_root(rng, law, vs) for _ in range(r)]
            ring = ProjBundleRing(SplitBundle(law, roots), "t")
            t = ring.var("t")
            for _ in range(2):
                p = sum(
                    (_random_element(rng, ring.context, names) * t**d for d in range(N + 1)),
                    ring.context.zero(),
                )
                q = ring.reduce(p)
                exact_divide(p - q, ring.relation)
                assert all(m[-1] < r for m in q.terms), (kind, N, ring.bundle)


def test_reduce_rejects_foreign_context():
    ring = standard_ring("additive", ["u1"])
    other = make_law("additive", 6).geometry_context(["u1"])
    with pytest.raises(ContextMismatch, match="incompatible contexts"):
        ring.reduce(other.var("u1"))


# -- pushforward ------------------------------------------------------------------


def test_additive_pushforward_matches_h_polynomial_oracle():
    # for the additive law pi_!(t^k) = h_{k-r+1}(-x_1..-x_r)
    law = make_law("additive", 6)
    for r in (1, 2, 3):
        names = [f"u{i}" for i in range(1, r + 1)]
        ctx = law.geometry_context(names)
        roots = [ctx.var(n) for n in names]
        ring = ProjBundleRing(SplitBundle(law, roots), "t")
        t = ring.var("t")
        hs = h_polys([-x for x in roots], 4, ctx)
        for k in range(r + 3):
            expected = hs[k - r + 1] if k - r + 1 >= 0 else ctx.zero()
            got = ring.pushforward(t**k)
            assert (got - expected).is_zero, (r, k)


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "universal"])
def test_pushforward_at_n_is_pushforward_at_n_plus_one_restricted(kind):
    # an element of t-degree >= rank must keep its top rank-1 weights: the
    # result at N is the result at N+1 (same law, same element) cut to N
    N = 4
    law = make_law(kind, N)
    law_hi = law.at_truncation(N + 1)
    shapes = (
        lambda lw, u, v, z: [u, z],
        lambda lw, u, v, z: [lw.apply(u, v), lw.inverse_at(v)],
        lambda lw, u, v, z: [u, u, z],
    )
    for shape in shapes:
        rings = []
        for lw in (law, law_hi):
            ctx = lw.geometry_context(["u", "v"])
            u, v = ctx.var("u"), ctx.var("v")
            rings.append(ProjBundleRing(SplitBundle(lw, shape(lw, u, v, ctx.zero())), "t"))
        ring, ring_hi = rings
        u, v, t = ring.var("u"), ring.var("v"), ring.var("t")
        for k in range(ring.rank + 2):
            p = t**k * (1 + u - v * Fraction(1, 2))
            got = ring.pushforward(p)
            want = ring_hi.pushforward(p.to_context(ring_hi.context)).to_context(got.context)
            assert (got - want).is_zero, (kind, ring.bundle, k)


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "universal"])
def test_pushforward_respects_the_quotient(kind):
    # pi_! is defined on the ring of P(E), so it must not see which
    # representative it is given: p, its normal form and p + f * q agree
    # wherever the result is exact.  The product f * q upstairs is cut at N
    # and pi_! lowers weight by r - 1, so that is through weight N - r + 1;
    # rank one is evaluation and agrees exactly.
    rng = random.Random(31)
    for N in (3, 4, 5):
        law = make_law(kind, N)
        names = ["v1", "v2"]
        ctx = law.geometry_context(names)
        vs = [ctx.var(n) for n in names]
        for r in (1, 2, 3):
            roots = [_random_root(rng, law, vs) for _ in range(r)]
            ring = ProjBundleRing(SplitBundle(law, roots), "t")
            cut = ctx.with_truncation(N - r + 1)
            for _ in range(2):
                p = _random_element(rng, ring.context, names + ["t"], max_pow=r + 1)
                q = _random_element(rng, ring.context, names + ["t"])
                want = ring.pushforward(p)
                for other in (ring.reduce(p), p + ring.relation * q):
                    got = ring.pushforward(other)
                    if r > 1:
                        assert got.to_context(cut) == want.to_context(cut), (kind, N, ring.bundle)
                    else:
                        assert got == want, (kind, N, ring.bundle)


def test_pushforward_lands_in_base_context():
    ring = standard_ring("universal", ["u1", "u2"])
    out = ring.pushforward(ring.var("t") ** 2)
    assert out.context == ring.parent_context
    assert "t" not in out.context.names


def test_trivial_bundle_normalization():
    # pi_!(t^(r-1)) = 1 for every law; t^r reduces to zero over a trivial
    # bundle; and below t^(r-1) only the graded additive law forces zero
    # (multiplicatively pi_!(1) is the arithmetic genus 1)
    for kind in ("additive", "multiplicative", "universal"):
        law = make_law(kind, 5)
        ctx = law.geometry_context([])
        for r in (2, 3):
            ring = ProjBundleRing(SplitBundle(law, [ctx.zero()] * r), "t")
            t = ring.var("t")
            assert (ring.pushforward(t ** (r - 1)) - 1).is_zero, (kind, r)
            assert ring.pushforward(t**r).is_zero, (kind, r)
            if kind == "additive":
                for k in range(r - 1):
                    assert ring.pushforward(t**k).is_zero, (r, k)
    law = make_law("multiplicative", 5)
    ctx = law.geometry_context([])
    ring = ProjBundleRing(SplitBundle(law, [ctx.zero()] * 2), "t")
    assert (ring.pushforward(ring.context.one()) - 1).is_zero
    law = make_law("universal", 5)
    ctx = law.geometry_context([])
    ring = ProjBundleRing(SplitBundle(law, [ctx.zero()] * 2), "t")
    assert (ring.pushforward(ring.context.one()) - 2 * ctx.var("m1")).is_zero


def test_rank_one_pushforward_is_evaluation():
    law = make_law("universal", 6)
    ctx = law.geometry_context(["u"])
    u = ctx.var("u")
    ring = ProjBundleRing(SplitBundle(law, [u]), "t")
    t = ring.var("t")
    p = ring.lift(u) * t + t**2
    tau = law.inverse_at(u)
    assert (ring.pushforward(p) - (u * tau + tau * tau)).is_zero


def test_p1_pushforward_formula_agreement():
    # a fresh residue pushforward of 1 on P(L+O) vs the closed form
    # -(F(x, y) - x - y)/(xy) at x = e(L), y = e(L*), for several lines L
    for kind, top in (("additive", 7), ("multiplicative", 7), ("universal", 6)):
        for N in range(1, top + 1):
            law = make_law(kind, N)
            ctx = law.geometry_context(["u", "v"])
            u, v = ctx.var("u"), ctx.var("v")
            iu, iv = law.inverse_at(u), law.inverse_at(v)
            for name, line in (("u", u), ("0", ctx.zero()), ("inv(u)", iu),
                               ("F(u,v)", law.apply(u, v)), ("F(u,inv(v))", law.apply(u, iv))):
                ring = ProjBundleRing(SplitBundle(law, [line, ctx.zero()]), "s")
                direct = ring.pushforward(ring.context.one())
                formula = pushforward_p1_formula(law, line)
                assert (direct - formula).is_zero, (kind, N, name)


def test_p1_class_closed_forms():
    # additive: [P1] = 0; multiplicative: [P1] = 1
    law_a = make_law("additive", 6)
    ctx = law_a.geometry_context(["u"])
    assert pushforward_p1_formula(law_a, ctx.var("u")).is_zero
    law_m = make_law("multiplicative", 6)
    ctx = law_m.geometry_context(["u"])
    assert (pushforward_p1_formula(law_m, ctx.var("u")) - 1).is_zero


def test_projection_formula_random():
    rep = projection_formula_check(truncation=4, cases=8, seed=3)
    assert rep.passed, "\n".join(l for l in rep.lines() if l.startswith("FAIL"))


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "universal"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_pushforward_is_base_linear(kind, r):
    # pi_!(pi^*(a) b1 + b2) = a pi_!(b1) + pi_!(b2) for a base element a; the
    # product upstairs is cut at N, so the sides agree through N - r + 1
    N = 5
    rng = random.Random(10 * r + len(kind))
    law = make_law(kind, N)
    names = ["v1", "v2"]
    ctx = law.geometry_context(names)
    vs = [ctx.var(n) for n in names]
    cut = ctx.with_truncation(N - r + 1)
    for _ in range(3):
        ring = ProjBundleRing(SplitBundle(law, [_random_root(rng, law, vs) for _ in range(r)]), "t")
        a = _random_element(rng, ctx, names)
        b1, b2 = (_random_element(rng, ring.context, names + ["t"]) for _ in range(2))
        lhs = ring.pushforward(ring.lift(a) * b1 + b2)
        rhs = a * ring.pushforward(b1) + ring.pushforward(b2)
        assert (lhs.to_context(cut) - rhs.to_context(cut)).is_zero


def test_pb_relation_suite():
    rep = pb_relation_check(truncation=5)
    assert rep.passed


# -- towers and point classes ------------------------------------------------------


def test_tower_classes_multiplicative_all_one():
    law = make_law("multiplicative", 6)
    for c in tower_classes(law, 4):
        assert (c - 1).is_zero


def test_tower_classes_additive_delta():
    law = make_law("additive", 6)
    cl = tower_classes(law, 4)
    assert (cl[0] - 1).is_zero
    for c in cl[1:]:
        assert c.is_zero


def test_tower_classes_universal_frozen():
    law = make_law("universal", 6)
    ctx = law.geometry_context([])
    m1, m2, m3 = ctx.var("m1"), ctx.var("m2"), ctx.var("m3")
    cl = tower_classes(law, 3)
    assert (cl[0] - 1).is_zero
    assert (cl[1] - 2 * m1).is_zero
    assert (cl[2] - 4 * m1 * m1).is_zero
    assert (cl[3] - (12 * m1**3 - 6 * m1 * m2 + 2 * m3)).is_zero
    # cross-oracle: the same classes specialize to the additive (0) and
    # multiplicative (1) point classes
    from occ.specialization import SpecializationMap, specialize

    law_m = make_law("multiplicative", 6)
    gm = law_m.geometry_context([])
    sm = SpecializationMap.to_multiplicative(law)
    sa = SpecializationMap.to_additive(law)
    ga = make_law("additive", 6).geometry_context([])
    for k, c in enumerate(cl):
        mk = specialize(sm, c, into=gm)
        ak = specialize(sa, c, into=ga)
        assert (mk - 1).is_zero, k
        if k == 0:
            assert (ak - 1).is_zero
        else:
            assert ak.is_zero, k


def test_tower_classes_are_cached_per_law():
    law = make_law("universal", 4)
    first = tower_classes(law, 4)
    expected = [str(c) for c in first]
    first[1] = first[0]
    first.append(first[0])
    second = tower_classes(law, 4)
    assert [str(c) for c in second] == expected
    assert all(a is b for a, b in zip(second, tower_classes(law, 4)))
    assert [str(c) for c in tower_classes(make_law("universal", 4), 4)] == expected


@pytest.mark.parametrize("depth", [-1, -3])
def test_tower_classes_reject_negative_depth(depth):
    law = make_law("universal", 4)
    with pytest.raises(CalculusError, match="non-negative"):
        tower_classes(law, depth)
    assert ("tower", depth) not in law._templates


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "universal"])
def test_tower_classes_restrict_from_one_order_up(kind):
    # the classes at N equal those at N + 1 with m_N = 0, for every depth up
    # to N + 2, which includes the raised-law branch for depth > N + 1
    for N in range(2, 6):
        lo, hi = make_law(kind, N), make_law(kind, N + 1)
        point = lo.geometry_context([])
        drop = {f"m{N}": 0} if kind == "universal" else {}
        for depth in range(N + 3):
            restricted = [c.substitute(drop, into=point) for c in tower_classes(hi, depth)]
            assert restricted == tower_classes(lo, depth), (N, depth)


def test_class_of_proj_line_matches_direct_pushforward():
    for kind, trunc in (("additive", 5), ("multiplicative", 5), ("universal", 4)):
        law = make_law(kind, trunc)
        ctx = law.geometry_context(["u"])
        u = ctx.var("u")
        ratio = class_of_proj_line(law, u)
        direct = pushforward_p1_formula(law, u)
        assert (ratio - direct).is_zero, kind


def test_geometric_fgl_additive_multiplicative():
    for kind in ("additive", "multiplicative"):
        rep = geometric_fgl_check(make_law(kind, 6))
        assert rep.passed, str(rep)


def test_geometric_fgl_universal_small():
    rep = geometric_fgl_check(make_law("universal", 4))
    assert rep.passed, str(rep)


# -- the linear recursion ----------------------------------------------------------


def test_sequence_extend_trivial_rank_two():
    law = make_law("additive", 5)
    ctx = law.geometry_context(["u"])
    cs = SplitBundle(law, [ctx.zero(), ctx.zero()]).relation_coefficients()
    seeds = [ctx.var("u") + 2, ctx.const(Fraction(3))]
    vals, stab = sequence_extend(cs, seeds, 6)
    assert stab == 2
    for v in vals[2:]:
        assert v.is_zero


def test_sequence_extend_line_plus_trivial():
    # E = (u, 0), additive: a_{n+2} = -u a_{n+1}
    law = make_law("additive", 5)
    ctx = law.geometry_context(["u"])
    u = ctx.var("u")
    cs = SplitBundle(law, [u, ctx.zero()]).relation_coefficients()
    vals, stab = sequence_extend(cs, [ctx.zero(), ctx.one()], 10)
    for n in range(1, 7):
        assert (vals[n] - (-u) ** (n - 1)).is_zero, n
    assert stab == 7  # (-u)^6 has weight 6 > 5


def test_sequence_extend_randomized_with_substitution_oracle():
    N = 5
    rng = random.Random(17)
    laws = {k: make_law(k, N) for k in ("additive", "multiplicative", "universal")}
    for case in range(20):
        law = laws[("additive", "multiplicative", "universal")[case % 3]]
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
        seeds = [rand_poly(rng, ctx, names, terms=2) for _ in range(r)]
        limit = N * r + r
        vals, stab = sequence_extend(cs, seeds, limit)
        # seeds are kept
        for j in range(r):
            assert (vals[j] - seeds[j]).is_zero
        # all-zero tail within index N*r
        assert stab <= N * r + 1, (case, stab)
        # forward-substitution oracle: the recursion holds at every index
        for n in range(limit - r + 1):
            acc = ctx.zero()
            for j in range(r + 1):
                acc = acc + cs[j] * vals[n + j]
            assert acc.is_zero, (case, n)


def test_sequence_extend_error_paths():
    law = make_law("additive", 4)
    ctx = law.geometry_context(["u"])
    u = ctx.var("u")
    with pytest.raises(CalculusError, match="finiteness violated"):
        sequence_extend([u, -ctx.one()], [ctx.one()], 2)
    with pytest.raises(CalculusError, match="constant unit"):
        sequence_extend([u, ctx.one() + u], [ctx.one()], 8)
    with pytest.raises(CalculusError, match="at least two"):
        sequence_extend([ctx.one()], [], 4)
    with pytest.raises(CalculusError, match="length"):
        sequence_extend([u, u, -ctx.one()], [ctx.one()], 8)


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "universal"])
def test_pushforward_matches_log_coordinate_formula(kind):
    # an independent pushforward: it shares only log, exp, invert_unit and
    # substitute with the residue template
    N = 5
    law = make_law(kind, N)
    ctx = law.geometry_context(["u", "v"])
    def iota_u(lw, u, v):
        return lw.inverse_at(u)

    def f_uv(lw, u, v):
        return lw.apply(u, v)

    def zero(lw, u, v):
        return u.context.zero()

    def first(lw, u, v):
        return u

    def second(lw, u, v):
        return v

    shapes = ([iota_u], [first, zero], [second, f_uv], [first, first, zero], [first, second, f_uv])
    u, v = ctx.var("u"), ctx.var("v")
    for roots in shapes:
        ring = ProjBundleRing(SplitBundle(law, [root(law, u, v) for root in roots]), "t")
        for k in range(ring.rank + 2):
            want = log_coordinate_pushforward(law, roots, k, ctx)
            assert ring.pushforward(ring.var("t") ** k) == want, (kind, ring.bundle, k)


# -- construction errors ------------------------------------------------------------


def test_ring_rejects_t_collision():
    law = make_law("additive", 5)
    ctx = law.geometry_context(["t"])
    with pytest.raises(CalculusError, match="variable collision"):
        ProjBundleRing(SplitBundle(law, [ctx.var("t")]), "t")


def test_custom_law_pushforward_rank_limits():
    ctx = Context((Var("x", 1, True), Var("y", 1, True)), 4)
    x, y = ctx.var("x"), ctx.var("y")
    law = custom_law(x + y - x * y)
    gctx = law.geometry_context(["u"])
    u = gctx.var("u")
    ring1 = ProjBundleRing(SplitBundle(law, [u]), "t")
    # rank one is plain evaluation at t = iota(u) and works for custom laws
    out = ring1.pushforward(ring1.var("t") + ring1.lift(u))
    assert (out - (law.inverse_at(u) + u)).is_zero
    ring2 = ProjBundleRing(SplitBundle(law, [u, gctx.zero()]), "t")
    with pytest.raises(CalculusError):
        ring2.pushforward(ring2.context.one())
