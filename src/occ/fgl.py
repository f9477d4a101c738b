"""One-dimensional commutative formal group laws over truncated series rings.

Three built-in laws:

* ``additive``        F(x, y) = x + y
* ``multiplicative``  F(x, y) = x + y - x*y
* ``universal``       F(x, y) = exp(log(x) + log(y)) over free generators
  m_1, m_2, ... of degree -i, where log(x) = x + sum_i m_i x^(i+1).  This is
  the rational model of the universal law at the chosen truncation order: the
  m_i are algebraically independent, so an identity that holds here holds for
  every law obtained by assigning rational values to the m_i.

Over the rationals a law is determined by its logarithm, the series l(x)
with l(F(x, y)) = l(x) + l(y).  `log` and its compositional inverse `exp`
are the one primitive of a law: the n-series is [n](x) = exp(n l(x)) for
every integer n, and the formal inverse is the case n = -1.

A law carries its own context (the two formal variables plus any coefficient
generators); geometry contexts for Chern-class computations are derived from
it so the generators stay available.

A law's formal variables are always ``x`` and ``y``.  Built-in laws are
shared, immutable values: one builder makes one law per (kind, generators,
truncation) for the life of the process, so `make_law` and a universal law
raised or lowered by `at_truncation` (which keeps its generators) share it.
What a law computes lazily (logarithm, exponential, inverse, pushforward
templates, the class of P(L + O)) depends on the law alone, so every caller
shares it.  Custom laws are built afresh on every call.
"""

from __future__ import annotations

from .series import (
    CalculusError,
    Context,
    Series,
    Var,
    div_coeff,
    exp_of,
    invert_unit,
    log1p_of,
    sum_of_products,
)
from .reports import CheckItem, Report, agreement

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
UNIVERSAL = "universal"
KINDS = (ADDITIVE, MULTIPLICATIVE, UNIVERSAL)


class FormalGroupLaw:
    """A formal group law F(x, y) together with its ambient context.

    A law is an immutable value.  Its one lazy cache, the dict `_templates`,
    holds deterministic functions of the law: its "log", "exp" and
    "inverse", and the pushforward templates and the class [P(L + O)] of
    `occ.projective`.  So a built-in law, which `make_law` shares, shares
    them with every caller.  `generators` are the coefficient generators,
    the `Var`s of the law's context other than x and y, and the one record
    of them: a universal law's m_i is `Var("m<i>", -i, False)`.
    """

    x = "x"
    y = "y"

    def __init__(self, F: Series, kind="custom"):
        self.F = F
        self.kind = kind
        self.context = F.context
        self.generators = tuple(v for v in self.context.variables if v.name not in ("x", "y"))
        self._templates = {}

    @property
    def truncation(self):
        return self.context.truncation

    def __repr__(self):
        return f"<FormalGroupLaw {self.kind} N={self.truncation}>"

    # -- basic evaluation ----------------------------------------------------

    def apply(self, a: Series, b: Series) -> Series:
        """F(a, b) for two series over a common context containing the generators."""
        return self.F.substitute({self.x: a, self.y: b}, into=a.context)

    def coefficient(self, i, j) -> Series:
        """Coefficient of x^i y^j as a series in the coefficient generators."""
        return self.F.partial_coefficient({self.x: i, self.y: j})

    # -- logarithm, exponential, n-series ------------------------------------

    def invariant_differential(self) -> Series:
        """w(x) = 1 / (dF/dy)(x, 0), so that w(x) dx is the invariant differential.

        Exact through weight N-1: the y-linear part of F stops at x^(N-1).
        """
        return invert_unit(self.F.partial_coefficient({self.y: 1}))

    def log(self) -> Series:
        """The logarithm l(x) with l(F(x, y)) = l(x) + l(y).

        The built-in laws set it in closed form.  A custom law checks
        F(x, 0) = x and F(0, y) = y, computes it from the classical formula
        l'(x) = 1 / (dF/dy)(x, 0) by termwise integration, then verifies it
        against the defining identity; any failure is "no logarithm".
        """
        if "log" in self._templates:
            return self._templates["log"]
        ctx = self.context
        ix = ctx.index(self.x)
        xs, ys = ctx.var(self.x), ctx.var(self.y)
        restrict = self.F.partial_coefficient
        if restrict({self.y: 0}) != xs or restrict({self.x: 0}) != ys:
            raise CalculusError("law has no logarithm at this truncation")
        g = self.invariant_differential()
        ell = {}
        for m, c in g.terms.items():
            key = tuple(e + 1 if i == ix else e for i, e in enumerate(m))
            if ctx.weight(key) <= ctx.truncation:
                ell[key] = div_coeff(c, m[ix] + 1)
        ell = Series(ctx, ell, _trusted=True)
        lhs = ell.substitute({self.x: self.apply(xs, ys)}, into=ctx)
        if lhs != ell + ell.substitute({self.x: ys}, into=ctx):
            raise CalculusError("law has no logarithm at this truncation")
        self._templates["log"] = ell
        return ell

    def exp(self) -> Series:
        """The exponential e(x), the compositional inverse of the logarithm."""
        if "exp" not in self._templates:
            self._templates["exp"] = _revert(self.log(), self.x)
        return self._templates["exp"]

    def formal_sum_n(self, n: int) -> Series:
        """The n-series [n](x) = exp(n log x), for any integer n."""
        return self.exp().substitute({self.x: self.log() * n})

    def sum_n_at(self, n: int, s: Series) -> Series:
        return self.formal_sum_n(n).substitute({self.x: s}, into=s.context)

    def formal_inverse(self) -> Series:
        """The series i(x) = [-1](x) with F(x, i(x)) = 0, in the law's own context."""
        if "inverse" not in self._templates:
            self._templates["inverse"] = self.formal_sum_n(-1)
        return self._templates["inverse"]

    def inverse_at(self, s: Series) -> Series:
        return self.formal_inverse().substitute({self.x: s}, into=s.context)

    # -- truncation changes ------------------------------------------------------

    def at_truncation(self, order) -> "FormalGroupLaw":
        """This same law recomputed at another truncation order.

        The additive and multiplicative laws extend exactly.  The universal
        law keeps its original generator set and re-expands exp/log: it is the
        law of the theory whose logarithm is exactly the original polynomial,
        so every truncation of it restricts to this law.  Custom laws carry no
        rule for extending and raise.
        """
        if order == self.truncation:
            return self
        if self.kind not in KINDS:
            raise CalculusError("cannot change the truncation of a custom law")
        return _built_in(self.kind, self.generators, order)

    # -- derived contexts ------------------------------------------------------

    def geometry_context(self, class_names) -> Context:
        """A context with degree-1 nilpotent class variables plus the generators."""
        vs = tuple(Var(n, 1, True) for n in class_names) + self.generators
        return Context(vs, self.truncation)

    # -- axiom checks -----------------------------------------------------------

    def check_axioms(self) -> Report:
        """Verify unit, commutativity, associativity and (if graded) homogeneity."""
        ctx = self.context
        xs, ys = ctx.var(self.x), ctx.var(self.y)
        items = []

        unit = self.apply(xs, ctx.zero())
        swapped = self.F.substitute({self.x: ys, self.y: xs}, into=ctx)

        zname = _fresh_name("z", ctx.names)
        ctx3 = Context(
            (Var(self.x, 1, True), Var(self.y, 1, True), Var(zname, 1, True)) + self.generators,
            ctx.truncation,
        )
        x3, y3, z3 = ctx3.var(self.x), ctx3.var(self.y), ctx3.var(zname)
        left = self.apply(self.apply(x3, y3), z3)
        right = self.apply(x3, self.apply(y3, z3))
        for name, got, expected in (
            ("unit", unit, xs),
            ("commutativity", self.F, swapped),
            ("associativity", left, right),
        ):
            items.append(agreement(name, got, expected))

        # x + y - xy does not respect the grading; custom laws carry none
        if self.kind in (ADDITIVE, UNIVERSAL):
            degrees = (ctx.degree_of(m) for m, _ in self.F.sorted_terms())
            bad = next((d for d in degrees if d != 1), None)
            detail = "" if bad is None else f"term of degree {bad}"
            items.append(CheckItem("homogeneity", not detail, detail))
        else:
            items.append(CheckItem("homogeneity", True, "ungraded theory"))

        return Report(f"axioms[{self.kind}, N={ctx.truncation}]", tuple(items))


def _fresh_name(base, taken):
    if base not in taken:
        return base
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


# -- constructors ---------------------------------------------------------------

# The built-in laws built so far.  A key is read only for an int truncation
# (True == 1, yet a law at truncation True must raise as its Context does)
# and written only once its law is built, so bad input is never cached.
_SHARED = {}
# The universal law's generator `Var`s per valid truncation, built once.
_GENERATORS = {}


def make_law(kind, truncation) -> FormalGroupLaw:
    """One of the three built-in laws at a truncation order, shared per arguments.

    The universal law at N has the generators m_1..m_(N-1); the additive and
    multiplicative laws have none.
    """
    if kind not in KINDS:
        raise CalculusError(f"unknown law kind {kind!r}")
    if type(truncation) is not int or truncation < 1:  # before range() reads it
        raise CalculusError("truncation order must be a positive integer")
    gens = ()
    if kind == UNIVERSAL:
        gens = _GENERATORS.get(truncation)
        if gens is None:
            gens = _GENERATORS[truncation] = tuple(Var(f"m{i}", -i, False) for i in range(1, truncation))
    return _built_in(kind, gens, truncation)


def _built_in(kind, gens, truncation) -> FormalGroupLaw:
    """The built-in law `kind` over the generator `Var`s `gens`, shared per arguments.

    The universal law is exp(log x + log y) for log(x) = x + sum m_i x^(i+1),
    where m_i has degree -i; the other two, inverses too, are in closed form.
    """
    key = (kind, gens, truncation)
    if type(truncation) is int and key in _SHARED:
        return _SHARED[key]
    ctx = Context((Var("x", 1, True), Var("y", 1, True)) + gens, truncation)
    xs, ys = ctx.var("x"), ctx.var("y")
    closed = {}
    if kind == ADDITIVE:
        F, log, exp = xs + ys, xs, xs
        closed["inverse"] = -xs
    elif kind == MULTIPLICATIVE:
        F, log, exp = xs + ys - xs * ys, -log1p_of(-xs), 1 - exp_of(-xs)
        closed["inverse"] = xs * invert_unit(xs - 1)
    else:
        log = xs + sum_of_products(ctx, ((ctx.var(v.name), xs ** (1 - v.degree)) for v in gens))
        exp = _revert(log, "x")
        F = exp.substitute({"x": log + log.substitute({"x": ys})})
    law = FormalGroupLaw(F, kind)
    law._templates.update(log=log, exp=exp, **closed)
    _SHARED[key] = law
    return law


def _revert(f: Series, x) -> Series:
    """The compositional inverse g of f(x) = x + ..., so that f(g(x)) = x.

    Solved weight by weight: once g is right below weight w, the weight-w
    part of f(g(x)) - x is exactly the correction that g still needs there,
    so g is exact through the truncation.  Both callers pass a logarithm of
    weight-1 part x: `_built_in` sets it, `FormalGroupLaw.log` checks it.
    """
    xs = f.context.var(x)
    g = xs
    for w in range(2, f.context.truncation + 1):
        g = g - (f.substitute({x: g}) - xs).weight_component(w)
    return g


def custom_law(F: Series) -> FormalGroupLaw:
    """Wrap an arbitrary series in x, y as a (candidate) law; axioms are not assumed.

    Custom laws carry no coefficient grading, so `check_axioms` skips the
    homogeneity item for them (a correct hand-entered multiplicative law
    would otherwise fail on its degree-2 term).
    """
    return FormalGroupLaw(F, "custom")
