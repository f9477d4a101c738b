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
templates, tower classes) depends on the law alone, so every caller shares
it.  Custom laws are built afresh on every call.
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
)
from .reports import CheckItem, Report, difference_detail

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
UNIVERSAL = "universal"


class FormalGroupLaw:
    """A formal group law F(x, y) together with its ambient context.

    A law is an immutable value.  Its lazy caches (`_log`, `_exp`,
    `_inverse`, `_templates`) hold deterministic functions of the law, so a
    built-in law, which `make_law` shares, shares them with every caller.
    """

    x = "x"
    y = "y"

    def __init__(self, F: Series, kind="custom"):
        self.F = F
        self.kind = kind
        # x + y - xy does not respect the grading; custom laws carry none
        self.graded = kind in (ADDITIVE, UNIVERSAL)
        self.context = F.context
        self.coefficient_names = tuple(n for n in self.context.names if n not in ("x", "y"))
        self._log = None
        self._exp = None
        self._inverse = None
        self._templates = {}

    @property
    def truncation(self):
        return self.context.truncation

    def __repr__(self):
        return f"<FormalGroupLaw {self.kind} N={self.truncation}>"

    # -- basic evaluation ----------------------------------------------------

    def apply(self, a: Series, b: Series) -> Series:
        """F(a, b) for two series over a common context containing the generators."""
        if a.context != b.context:
            raise CalculusError("incompatible contexts")
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
        if self._log is not None:
            return self._log
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
        self._log = ell
        return ell

    def exp(self) -> Series:
        """The exponential e(x), the compositional inverse of the logarithm."""
        if self._exp is None:
            self._exp = _revert(self.log(), self.x)
        return self._exp

    def formal_sum_n(self, n: int) -> Series:
        """The n-series [n](x) = exp(n log x), for any integer n."""
        return self.exp().substitute({self.x: self.log() * n})

    def sum_n_at(self, n: int, s: Series) -> Series:
        return self.formal_sum_n(n).substitute({self.x: s}, into=s.context)

    def formal_inverse(self) -> Series:
        """The series i(x) = [-1](x) with F(x, i(x)) = 0, in the law's own context."""
        if self._inverse is None:
            self._inverse = self.formal_sum_n(-1)
        return self._inverse

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
        if self.kind not in (ADDITIVE, MULTIPLICATIVE, UNIVERSAL):
            raise CalculusError("cannot change the truncation of a custom law")
        return _built_in(self.kind, self.coefficient_names, order)

    # -- derived contexts ------------------------------------------------------

    def geometry_context(self, class_names) -> Context:
        """A context with degree-1 nilpotent class variables plus the generators."""
        gens = tuple(
            v for v in self.context.variables if v.name in self.coefficient_names
        )
        vs = tuple(Var(n, 1, True) for n in class_names) + gens
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
            (Var(self.x, 1, True), Var(self.y, 1, True), Var(zname, 1, True))
            + tuple(v for v in ctx.variables if v.name in self.coefficient_names),
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
            detail = difference_detail(got, expected)
            items.append(CheckItem(name, not detail, detail))

        if self.graded:
            ok = self.F.is_homogeneous(1)
            bad = ""
            if not ok:
                for m, _ in self.F.sorted_terms():
                    d = ctx.degree_of(m)
                    if d != 1:
                        bad = f"term of degree {d}"
                        break
            items.append(CheckItem("homogeneity", ok, bad))
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


def make_law(kind, truncation) -> FormalGroupLaw:
    """One of the three built-in laws at a truncation order, shared per arguments.

    The universal law at N has the generators m_1..m_(N-1); the additive and
    multiplicative laws have none.
    """
    if kind not in (ADDITIVE, MULTIPLICATIVE, UNIVERSAL):
        raise CalculusError(f"unknown law kind {kind!r}")
    gen_names = tuple(f"m{i}" for i in range(1, truncation)) if kind == UNIVERSAL else ()
    return _built_in(kind, gen_names, truncation)


def _built_in(kind, gen_names, truncation) -> FormalGroupLaw:
    """The built-in law `kind` over the given generators, shared per arguments.

    The universal law is exp(log x + log y) for log(x) = x + sum m_i x^(i+1);
    the other two are set in closed form.
    """
    key = (kind, gen_names, truncation)
    if type(truncation) is int and key in _SHARED:
        return _SHARED[key]
    gens = [Var(n, -int(n[1:]), False) for n in gen_names]
    ctx = Context([Var("x", 1, True), Var("y", 1, True)] + gens, truncation)
    xs, ys = ctx.var("x"), ctx.var("y")
    if kind == ADDITIVE:
        F, log, exp = xs + ys, xs, xs
    elif kind == MULTIPLICATIVE:
        F, log, exp = xs + ys - xs * ys, -log1p_of(-xs), 1 - exp_of(-xs)
    else:
        log = xs
        for v in gens:
            log = log + ctx.var(v.name) * xs ** (-v.degree + 1)
        exp = _revert(log, "x")
        F = exp.substitute({"x": log + log.substitute({"x": ys})})
    law = FormalGroupLaw(F, kind)
    law._log, law._exp = log, exp
    _SHARED[key] = law
    return law


def _revert(f: Series, x) -> Series:
    """The compositional inverse g of f(x) = x + ..., so that f(g(x)) = x.

    Solved weight by weight: once g is right below weight w, the weight-w
    part of f(g(x)) - x is exactly the correction that g still needs there.
    """
    xs = f.context.var(x)
    g = xs
    for w in range(2, f.context.truncation + 1):
        g = g - (f.substitute({x: g}) - xs).weight_component(w)
    if f.substitute({x: g}) != xs:
        raise CalculusError("series has no compositional inverse at this truncation")
    return g


def custom_law(F: Series) -> FormalGroupLaw:
    """Wrap an arbitrary series in x, y as a (candidate) law; axioms are not assumed.

    Custom laws carry no coefficient grading, so `check_axioms` skips the
    homogeneity item for them (a correct hand-entered multiplicative law
    would otherwise fail on its degree-2 term).
    """
    return FormalGroupLaw(F, "custom")
