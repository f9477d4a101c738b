"""Projective-bundle rings, towers, and residue-formula Gysin pushforwards.

For a split bundle E of rank r over X with roots x_1..x_r, the ring of
P(E) is presented as the base ring with one fresh degree-1 nilpotent
generator t (the first Chern class of O(1)) modulo the relation

    f(t) = sum_{i=0}^{r} (-1)^i c_{r-i}(E*) t^i  =  prod_i (iota(x_i) - t),

which is weight-homogeneous of weight r with leading coefficient (-1)^r.
The ring is free over the base on 1, t, ..., t^(r-1), and f fixes every
higher power of t, so a base-linear map out of it is the list of images of
those r powers: `reduce` sends t^k, k < r, to itself (the normal form, of
t-degree < r) and `pushforward` to pi_!(t^k); both extend their list by the
relation's recursion (`ProjBundleRing._map_by_powers`).

The standard tower's point classes follow from the one class of P(L + O)
by a recursion (`tower_classes`); the independent closed forms and
pushforwards that check them live in `occ.oracles`.

`pushforward` implements the Gysin map along P(E) -> X by Quillen's residue
formula pi_!(p) = Res_t p(t) w(t) / prod_j F(t, x_j), w = 1 / F_y(t, 0).
With tau = iota(x) and F(t, iota(tau)) = (t - tau) U(t, tau) it reads

    pi_!(t^k) = sum_j [t^j](t^k w(t) exp(-sum_b l_b(t) p_b)) h_{j-r+1},

where log U(t, tau) = sum_b l_b(t) tau^b and p_b, h_m are the power sums
and complete symmetric functions of the tau_j, both polynomials in the dual
Chern classes e_i = c_i(E*).  So pi_!(t^k), k < r, is a per-law template in
e_1..e_r (`pushforward_template`) into which a ring substitutes its own
classes; higher powers follow from the relation in the base ring, so
pi_! already vanishes on multiples of f and needs no normal form.  Nothing
is reduced upstairs or downstairs, and the pushforward of a polynomial of
any t-degree is exact through the truncation weight N, repeated and zero
roots included.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .series import (
    CalculusError,
    Context,
    ContextMismatch,
    NotDivisible,
    Series,
    Var,
    div_coeff,
    exact_divide,
    exp_of,
    log1p_of,
)
from .bundles import SplitBundle
from .reports import CheckItem, Report, difference_detail


def pushforward_template(law, N, r, k) -> Series:
    """pi_!(t^k), k < r, on the P(E) of any rank-r bundle as a polynomial in c_i(E*).

    The result lives over variables e1..er (e_i = c_i(E*), nilpotent of
    weight i) and the law's generators at truncation N, and is exact there:
    U and w are exact one weight below the law's order, and the pushforward
    lowers weight by r - 1, so they are expanded with the law at N + r.  All
    k < r are built together and cached on that law.
    """
    hi = law.at_truncation(N + r)
    key = ("pushforward", N, r)
    if key not in hi._templates:
        ctx = hi.context
        M = N + r - 1
        gens = tuple(v for v in ctx.variables if v.name in hi.coefficient_names)
        evars = tuple(Var(f"e{i}", i, True) for i in range(1, r + 1))
        # t is the law's x, tau its y
        lw = ctx.with_truncation(M)
        work = Context((Var(hi.x, 1, True),) + evars + gens, M)
        tmpl = Context(evars + gens, N)
        x, y = ctx.var(hi.x), ctx.var(hi.y)
        log_u = log1p_of(exact_divide(hi.apply(x, hi.inverse_at(y)), x - y).to_context(lw) - 1)
        ls = log_u.split(hi.y, work, M + 1)
        e = [work.one()] + [work.var(v.name) for v in evars]
        power_sums = [None]
        exponent = work.zero()
        for b in range(1, M + 1):
            # Newton: p_b = sum_{i<b} (-1)^(i-1) e_i p_{b-i} + (-1)^(b-1) b e_b
            p_b = e[b] * ((-1) ** (b - 1) * b) if b <= r else work.zero()
            for i in range(1, min(b - 1, r) + 1):
                p_b = p_b + e[i] * power_sums[b - i] * (-1) ** (i - 1)
            power_sums.append(p_b)
            exponent = exponent + ls[b] * p_b
        A = hi.invariant_differential().to_context(work) * exp_of(-exponent)
        # Res_t t^j / prod_i (t - tau_i) = h_{j-r+1} follows the relation's recursion
        et = [tmpl.one()] + [tmpl.var(v.name) for v in evars]
        hs = [tmpl.zero()] * (r - 1) + [tmpl.one()]
        _extend_by_relation([et[r - i] * (-1) ** i for i in range(r + 1)], hs, M)
        coeffs = A.split(hi.x, tmpl, M + 1)
        hi._templates[key] = [
            sum((c * hs[d + j] for d, c in enumerate(coeffs) if d + j <= M), tmpl.zero())
            for j in range(r)
        ]
    return hi._templates[key][k]


class ProjBundleRing:
    """The ring of P(E) presented over the ring of the base.

    Elements are ordinary series over `self.context` (the base context plus
    the tautological class `t`).  `reduce` and `pushforward` are base-linear
    maps, each given by the images of 1, t, ..., t^(r-1) (`_map_by_powers`).
    """

    def __init__(self, bundle: SplitBundle, t="t"):
        if t in bundle.context.names:
            raise CalculusError("variable collision")
        self.bundle = bundle
        self.law = bundle.law
        self.rank = bundle.rank
        self.t = t
        self.parent_context = bundle.context
        self.context = bundle.context.extend([Var(t, 1, True)])
        self._base_coefficients = bundle.relation_coefficients()
        self._coefficients = [self.lift(a) for a in self._base_coefficients]
        ts = self.context.var(t)
        self.relation = sum(
            (a * ts**i for i, a in enumerate(self._coefficients)), self.context.zero()
        )
        self._normal_forms = [ts**k for k in range(self.rank)]
        self._images = None

    def __repr__(self):
        return f"<ProjBundleRing rank {self.rank} over {self.parent_context!r}, t={self.t}>"

    def lift(self, p: Series) -> Series:
        """Pull a base-ring element up (t-degree zero)."""
        return p.substitute({}, into=self.context)

    def var(self, name):
        return self.context.var(name)

    def reduce(self, p: Series) -> Series:
        """Normal form: the representative of p's class of t-degree < rank.

        The base-linear map sending t^k, k < rank, to itself.
        """
        return self._map_by_powers(p, self.context, self._coefficients, self._normal_forms)

    def pushforward(self, p: Series) -> Series:
        """Gysin pushforward to the base ring by the residue formula.

        The base-linear map sending t^k, k < rank, to its template image
        (`pushforward_template`); at rank one P(L) = X and 1 goes to 1.  The
        images are exact through weight N, so the result is exact through
        weight N for any polynomial p.  Multiples of the relation map to
        zero, so any representative of a class may be passed; the result is
        the image of the given one and is not reduced.
        """
        parent, r, a = self.parent_context, self.rank, self._base_coefficients
        if self._images is None:
            self._images = [parent.one()]  # rank one: P(L) = X
            if r > 1:
                # e_i = c_i(E*) = (-1)^(r-i) a_{r-i}
                e = {f"e{i}": a[r - i] * (-1) ** (r - i) for i in range(1, r + 1)}
                tks = [pushforward_template(self.law, parent.truncation, r, k) for k in range(r)]
                self._images = [tk.substitute(e, into=parent) for tk in tks]
        return self._map_by_powers(p, parent, a, self._images)

    def _map_by_powers(self, p, into, cs, images):
        """sum_k p_k images[k] over `into` for p = sum_k p_k t^k.

        `images` starts with the images of t^0..t^(r-1); the relation
        sum_i cs[i] t^i extends it in place as far as p's t-degree needs.
        `into` is the base context or the ring's own (`Series.split` gives
        the p_k there).
        """
        if p.context != self.context:
            raise ContextMismatch("incompatible contexts")
        parts = p.split(self.t, into)
        _extend_by_relation(cs, images, len(parts) - 1)
        out = into.zero()
        for part, image in zip(parts, images):
            if part.terms:
                out = out + part * image
        return out


def pb_relation_check(truncation: int = 6) -> Report:
    """The defining relation of P(E) against the Euler class of E*(-1).

    For generic roots and r <= 3: e(E*(-1)) factors as f(t) * U with U a
    unit of constant term 1 (each F(iota(x_i), iota(t)) is (iota(x_i) - t)
    times a unit); for the additive law U = 1 and the factorization is the
    literal expansion sum_i (-1)^i c_{r-i}(E*) t^i; and e(E*(-1)) reduces
    to zero in the quotient ring.  Both sides have weight r, so for r above
    the truncation they must both be zero and there is nothing to divide.
    """
    from .fgl import make_law

    items = []
    for kind in ("additive", "multiplicative", "universal"):
        law = make_law(kind, truncation)
        for r in (1, 2, 3):
            names = [f"u{i}" for i in range(1, r + 1)]
            ctx = law.geometry_context(names)
            bundle = SplitBundle(law, [ctx.var(n) for n in names])
            ring = ProjBundleRing(bundle, "t")
            tv = ring.var("t")
            up = SplitBundle(law, [ring.lift(x) for x in bundle.roots])
            euler = up.dual().twist_by_line(law.inverse_at(tv)).euler()
            tag = f"{kind},r={r}"
            if r > truncation:
                ok = euler.is_zero and ring.relation.is_zero
                detail = "" if ok else f"nonzero above weight {truncation}"
            else:
                try:
                    unit = exact_divide(euler, ring.relation)
                    ok = unit.constant_term == 1
                    detail = "" if ok else f"unit constant term {unit.constant_term}"
                except NotDivisible as exc:
                    ok, detail = False, str(exc)
            items.append(CheckItem(f"pbf[{tag}] euler = relation * unit", ok, detail))
            if kind == "additive":
                detail = difference_detail(euler, ring.relation)
                items.append(CheckItem(f"pbf[{tag}] literal expansion", not detail, detail))
            items.append(
                CheckItem(f"pbf[{tag}] reduce(euler) = 0", ring.reduce(euler).is_zero)
            )
            items.append(
                CheckItem(f"pbf[{tag}] reduce(relation) = 0", ring.reduce(ring.relation).is_zero)
            )
    return Report(f"pbf[N={truncation}]", tuple(items))


def projection_formula_check(truncation: int = 6, cases: int = 20, seed: int = 0) -> Report:
    """pi_!(pi^*(a) * b) = a * pi_!(b) on randomized bundles of rank <= 3.

    Both sides land in the base ring; the pushforward is base-linear, so the
    identity pins down the residue normalization against ordinary products.
    The pushforward lowers weight by rank-1, so the product upstairs is formed
    at truncation N + rank - 1 and the two sides are compared on all terms of
    weight <= N, where they are exact.
    """
    from .fgl import make_law
    from .bundles import _random_root

    rng = random.Random(seed)
    items = []
    for case in range(cases):
        kind = ("additive", "multiplicative", "universal")[case % 3]
        r = rng.randint(1, 3)
        law = make_law(kind, truncation + r - 1)
        nvars = rng.randint(1, 2)
        names = [f"v{i}" for i in range(1, nvars + 1)]
        ctx = law.geometry_context(names)
        vs = [ctx.var(n) for n in names]
        bundle = SplitBundle(law, [_random_root(rng, law, vs) for _ in range(r)])
        ring = ProjBundleRing(bundle, "t")
        a = _random_element(rng, ctx, names)
        b = _random_element(rng, ring.context, names + ["t"])
        lhs = ring.pushforward(ring.lift(a) * b)
        rhs = a * ring.pushforward(b)
        cut = ctx.with_truncation(truncation)
        detail = difference_detail(lhs.to_context(cut), rhs.to_context(cut))
        name = f"case {case}: {kind}, rank {r}, {nvars} base vars"
        items.append(CheckItem(name, not detail, detail))
    return Report(f"projection-formula[N={truncation},cases={cases}]", tuple(items))


def _random_element(rng, ctx, names, max_terms=4, max_pow=2):
    acc = ctx.const(Fraction(rng.randint(-2, 2)))
    for _ in range(rng.randint(1, max_terms)):
        term = ctx.const(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for n in names:
            e = rng.randrange(max_pow + 1)
            if e:
                term = term * ctx.var(n) ** e
        acc = acc + term
    return acc


# -- towers ---------------------------------------------------------------------


def _line_class(law) -> Series:
    """[P(L + O)] over `law.geometry_context(["u"])`, exact through N; cached."""
    if "line" not in law._templates:
        ctx = law.geometry_context(["u"])
        ring = ProjBundleRing(SplitBundle(law, [ctx.var("u"), ctx.zero()]), "t")
        law._templates["line"] = ring.pushforward(ring.context.one())
    return law._templates["line"]


def tower_classes(law, depth) -> list:
    """[P_0], ..., [P_depth] for the standard tower over a point.

    The tower-ratio identity gives [P_0] = 1, [P_{n+1}] = sum_{i<=n} G_i
    [P_{n-i}] for G(u) = sum_i G_i u^i = [P(L + O)]; G_i, i < depth, needs
    the law at max(N, depth - 1) (canonical laws only above N).  The
    classes are cached on the law; each call returns a new list.  A
    negative depth raises.
    """
    if depth < 0:
        raise CalculusError("tower depth must be non-negative")
    key = ("tower", depth)
    if key not in law._templates:
        ctx = law.geometry_context([])
        out = [ctx.one()]
        if depth:
            G = _line_class(law.at_truncation(max(law.truncation, depth - 1)))
            g = G.split("u", ctx, depth)
            for n in range(depth):
                out.append(sum((g[i] * out[n - i] for i in range(n + 1)), ctx.zero()))
        law._templates[key] = out
    return list(law._templates[key])


def class_of_proj_line(law, u: Series) -> Series:
    """[P(L + O)] for a line with Euler class u, the law at u's truncation."""
    G = _line_class(law.at_truncation(u.context.truncation))
    return G.substitute({"u": u}, into=u.context)


# -- the geometric law identity ---------------------------------------------------


def geometric_fgl_check(law) -> Report:
    """Verify F(u1,u2) * (1 + u1 u2 ([P2]-[P3])) = u1 + u2 - u1 u2 [P1].

    P1 = P(L1+O) and P2 = P(L2 + L1 L2 + O); P3 = P(O(-1)+O) over
    P(L2 + L1 L2).  [P1] and the fibre class of P3 are the law's one class
    of P(L + O) (`class_of_proj_line`), [P2] and P3's base are residue
    pushforwards of 1.
    The identity holds only with [P1] and the base of [P3] on
    complementary lines (pairing both with L1 breaks it at weight 4, first
    at the u1^3 u2 coefficient, universal law) and with P2 on the lines of
    P3's base: P2 = P(L1 + L1 L2 + O) breaks it at weight 6 (first at
    u1^5 u2 m1^5, universal law at N = 6).
    """
    names = ("u1", "u2")
    ctx = law.geometry_context(names)
    u1, u2 = ctx.var("u1"), ctx.var("u2")
    F12 = law.apply(u1, u2)
    zero = ctx.zero()

    p1 = class_of_proj_line(law, u1)

    ring2 = ProjBundleRing(SplitBundle(law, [u2, F12, zero]), "s1")
    p2 = ring2.pushforward(ring2.context.one())

    # [P3] passes through two pushforward levels and the inner truncation
    # cut would leak into the top weight downstairs, so compute one order
    # higher and restrict back.  The law can be raised: the rank-2
    # pushforwards above already needed it at N + 2.
    law3 = law.at_truncation(ctx.truncation + 1)
    ctx3 = law3.geometry_context(names)
    v1, v2 = ctx3.var("u1"), ctx3.var("u2")
    lower = ProjBundleRing(SplitBundle(law3, [v2, law3.apply(v1, v2)]), "s1")
    o_minus_1 = law3.inverse_at(lower.context.var("s1"))
    p3 = lower.pushforward(class_of_proj_line(law3, o_minus_1)).to_context(ctx)

    lhs = F12 * (1 + u1 * u2 * (p2 - p3))
    rhs = u1 + u2 - u1 * u2 * p1
    detail = difference_detail(lhs, rhs)
    return Report(
        f"geometric-fgl[{law.kind}, N={ctx.truncation}]",
        (
            CheckItem("geometric-fgl-identity", not detail, detail),
            CheckItem("p1-class", True, f"[P1] = {p1}"),
            CheckItem("p2-class", True, f"[P2] = {p2}"),
            CheckItem("p3-class", True, f"[P3] = {p3}"),
        ),
    )


# -- linear recursions from the relation -------------------------------------------


def sequence_extend(cs, seed, limit):
    """Extend a_0..a_{r-1} by the recursion sum_j cs[j] * a_{n+j} = 0 up to `limit`.

    `cs` are the r+1 relation coefficients (leading one a constant unit).
    Returns (values, stabilization index): the index after the last nonzero
    entry, certified by >= r consecutive zero entries at the tail; raises
    "finiteness violated" when the tail has not stabilized by `limit`.
    """
    r = len(cs) - 1
    if r < 1:
        raise CalculusError("need at least two relation coefficients")
    if len(seed) != r:
        raise CalculusError(f"seed must have length {r}")
    lead = cs[r]
    ctx = lead.context
    if lead != ctx.const(lead.constant_term) or lead.constant_term == 0:
        raise CalculusError("leading relation coefficient must be a constant unit")
    vals = [s if isinstance(s, Series) else ctx.const(s) for s in seed]
    _extend_by_relation(cs, vals, limit)
    s = len(vals)
    while s > 0 and vals[s - 1].is_zero:
        s -= 1
    if len(vals) - s < r:
        raise CalculusError("finiteness violated")
    return vals, s


def _extend_by_relation(cs, vals, limit):
    """Append vals[n+r] = -sum_{j<r} cs[j] vals[n+j] / cs[r] until vals[limit] exists."""
    r = len(cs) - 1
    inv_lead = div_coeff(1, cs[r].constant_term)
    while len(vals) <= limit:
        n = len(vals) - r
        acc = cs[0].context.zero()
        for j in range(r):
            acc = acc + cs[j] * vals[n + j]
        vals.append(acc * (-inv_lead))
