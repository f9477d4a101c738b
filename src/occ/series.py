"""Exact sparse arithmetic for truncated multivariate power series.

The coefficient ring is the rationals, and coefficients are never floats: a
coefficient is an `int` when its value is integral and a
`fractions.Fraction` otherwise.
Variables are declared up front in a :class:`Context`, each with a name, an
integer degree, and a nilpotency flag.  Truncation is by *nilpotent weight*:
the weight of a monomial is the degree-weighted sum of the exponents of its
nilpotent variables, and every term of weight exceeding the context's
truncation order is identically zero.  Exponents of non-nilpotent variables
(e.g. free coefficient generators of negative degree) are never truncated.

The canonical order on terms is ascending nilpotent weight, then descending
lexicographic exponent order in the context's variable order.  Printing,
JSON serialization and first-discrepancy reporting all follow it.

A :class:`Series` is an immutable value: no code may mutate its `terms`
after construction, so what a series caches about its terms never goes
stale.  The one it caches is its terms sorted by weight with denominators
cleared, the form the product kernel reads: each operand clears its
denominators once, the pairs of a sum of products are brought to one common
denominator, the pair loop runs on ints, and each output term is divided
once.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import add, itemgetter, mul

_is_int = int.__instancecheck__  # bool never occurs: coefficients are int or Fraction

class CalculusError(Exception):
    """Base class for all arithmetic/validation errors raised here."""


class ContextMismatch(CalculusError):
    pass


class NotAUnit(CalculusError):
    pass


class NotDivisible(CalculusError):
    pass


class NotSymmetric(CalculusError):
    pass


class SubstitutionError(CalculusError):
    pass


Var = namedtuple("Var", "name degree nilpotent", defaults=(True,))


def _coerce_coeff(c):
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)  # a bool becomes 0 or 1
    raise CalculusError(f"coefficient must be an integer or Fraction, got {type(c).__name__}")


def _coerce_exponent(e):
    if isinstance(e, int) and e >= 0:
        return int(e)  # a bool becomes 0 or 1
    raise CalculusError(f"exponent must be a non-negative integer, got {e!r}")


def div_coeff(a, b):
    """The exact quotient a / b of two coefficients: an int when integral.

    `int / int` is a float in Python, so every coefficient division goes
    through here.
    """
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _clean(terms):
    """`terms` without zero coefficients and with integral Fractions as ints."""
    return {
        m: c if type(c) is int or c.denominator != 1 else c.numerator
        for m, c in terms.items()
        if c
    }


def _mac(out, a, b, limit):
    """Multiply-accumulate: out[ma + mb] += ca * cb for every pair of weight <= limit.

    `a` and `b` are lists of (weight, monomial, coefficient) sorted by
    weight.  Zeros and integral Fractions may be left in `out`; pass it
    through `_clean` once the accumulation is done.
    """
    get = out.get
    for wa, ma, ca in a:
        room = limit - wa
        for wb, mb, cb in b:
            if wb > room:
                break
            key = tuple(map(add, ma, mb))
            out[key] = get(key, 0) + ca * cb


class Context:
    """An ordered list of variables plus a truncation order.

    Series are only compatible when their contexts are equal (same variables
    in the same order, same truncation).
    """

    __slots__ = ("variables", "truncation", "names", "_index", "_degs", "_hash")

    def __init__(self, variables, truncation):
        vs = []
        for v in variables:
            if isinstance(v, Var):
                vs.append(v)
            else:
                vs.append(Var(*v))
        self.variables = tuple(vs)
        self.names = tuple(v.name for v in vs)
        if len(set(self.names)) != len(self.names):
            raise CalculusError("duplicate variable names")
        for v in vs:
            if v.nilpotent and v.degree < 1:
                raise CalculusError(f"nilpotent variable {v.name} must have degree >= 1")
        if type(truncation) is not int or truncation < 1:
            raise CalculusError("truncation order must be a positive integer")
        self.truncation = truncation
        self._index = {v.name: i for i, v in enumerate(vs)}
        # weight = dot product with the degrees of the nilpotent variables
        self._degs = tuple(v.degree if v.nilpotent else 0 for v in vs)
        self._hash = hash((self.variables, truncation))

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Context)
            and self.variables == other.variables
            and self.truncation == other.truncation
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        vs = ", ".join(
            f"{v.name}:{v.degree}" + ("" if v.nilpotent else "!") for v in self.variables
        )
        return f"Context([{vs}], N={self.truncation})"

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise CalculusError(f"unknown variable {name!r}") from None

    def weight(self, exps):
        """Nilpotent weight of an exponent tuple."""
        return sum(map(mul, exps, self._degs))

    def degree_of(self, exps):
        """Total degree of an exponent tuple (all variables, signed degrees)."""
        return sum(e * v.degree for e, v in zip(exps, self.variables))

    # -- constructors -------------------------------------------------------

    def zero(self):
        return Series(self, {}, _trusted=True)

    def one(self):
        return self.const(1)

    def const(self, c):
        q = _coerce_coeff(c)
        zero = (0,) * len(self.variables)
        return Series(self, {zero: q} if q else {}, _trusted=True)

    def var(self, name):
        i = self.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(self.variables)))
        if self.weight(exps) > self.truncation:
            return self.zero()
        return Series(self, {exps: 1}, _trusted=True)

    def series(self, terms):
        """Build a series from {exponent tuple or {name: exp}: coefficient}."""
        out = {}
        for mono, c in (terms.items() if isinstance(terms, dict) else terms):
            if isinstance(mono, dict):
                exps = [0] * len(self.variables)
                for name, e in mono.items():
                    exps[self.index(name)] = e
                mono = exps
            elif len(mono := tuple(mono)) != len(self.variables):
                raise CalculusError("exponent tuple has wrong length")
            mono = tuple(map(_coerce_exponent, mono))
            q = _coerce_coeff(c)
            if q and self.weight(mono) <= self.truncation:
                out[mono] = out.get(mono, 0) + q
        return Series(self, _clean(out), _trusted=True)

    # -- derived contexts ----------------------------------------------------

    def extend(self, new_vars):
        vs = tuple(v if isinstance(v, Var) else Var(*v) for v in new_vars)
        return Context(self.variables + vs, self.truncation)

    def with_truncation(self, truncation):
        return Context(self.variables, truncation)


def _by_weight(ctx, terms):
    """The items of `terms` as (weight, monomial, coefficient), sorted by weight."""
    degs = ctx._degs
    return sorted(((sum(map(mul, m, degs)), m, c) for m, c in terms.items()), key=itemgetter(0))


def _slots(ctx, target, skip, monomials):
    """The slot in `ctx` of each variable of `target`, -1 where it has none.

    `m + (0,)` read at these slots moves a monomial m of `ctx` into
    `target`, leaving out the slots in `skip`.  A variable that occurs in
    `monomials` but is missing from `target`, or differs there, raises
    `ContextMismatch`.
    """
    order = [-1] * len(target.variables)
    for j, v in enumerate(ctx.variables):
        if j in skip:
            continue
        k = target._index.get(v.name)
        if k is not None and target.variables[k][1:] == v[1:]:
            order[k] = j
        elif any(m[j] for m in monomials):
            where = "not in" if k is None else "differs in"
            raise ContextMismatch(f"incompatible contexts: variable {v.name!r} {where} target")
    return order


def _cleared(s):
    """(d, [(weight, monomial, d * coefficient), ...] sorted by weight) for a series.

    d is the least common denominator of the coefficients, so every entry is
    an int.  Computed once per series and kept on it.
    """
    if s._cleared is None:
        items = _by_weight(s.context, s.terms)
        if all(map(_is_int, s.terms.values())):
            s._cleared = (1, items)
        else:
            d = lcm(*(c.denominator for _, _, c in items if type(c) is not int))
            s._cleared = (d, [(w, m, c * d if type(c) is int else c.numerator * (d // c.denominator))
                              for w, m, c in items])
    return s._cleared


def _product(ctx, a, b):
    """The product of two weight-sorted term lists, as a weight-sorted term list."""
    out = {}
    _mac(out, a, b, ctx.truncation)
    return _by_weight(ctx, _clean(out))


def sum_of_products(ctx, pairs):
    """sum a * b over (a, b) pairs of series over `ctx`: one `_mac` per pair into one dict.

    The accumulation is kept over one common denominator L, the lcm of the
    pairs' denominators, so the pair loop runs on ints and each output term
    is divided by L once.  A series from another context raises
    `ContextMismatch`.
    """
    out = {}
    L = 1
    N = ctx.truncation
    for a, b in pairs:
        if a.context != ctx or b.context != ctx:
            raise ContextMismatch("incompatible contexts")
        if a.terms and b.terms:
            (da, a), (db, b) = _cleared(a), _cleared(b)
            d = da * db
            if L % d:  # a new denominator: bring what is accumulated to the new L
                g = lcm(L, d) // L
                out = {m: c * g for m, c in out.items()}
                L *= g
            _mac(out, a if d == L else [(w, m, c * (L // d)) for w, m, c in a], b, N)
    if L == 1:
        return Series(ctx, {m: c for m, c in out.items() if c}, _trusted=True)
    return Series(ctx, {m: div_coeff(c, L) for m, c in out.items() if c}, _trusted=True)


def _term_key(ctx, exps):
    # canonical order: ascending weight, then descending lex in variable order
    return (ctx.weight(exps), tuple(-e for e in exps))


class Series:
    """A truncated power series: a sparse map from exponent tuples to coefficients."""

    __slots__ = ("context", "terms", "_cleared")

    def __init__(self, context, terms, _trusted=False):
        self.context = context
        self.terms = terms if _trusted else context.series(terms).terms
        self._cleared = None  # filled by `_cleared`

    # -- inspection ----------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def constant_term(self):
        zero = (0,) * len(self.context.variables)
        return self.terms.get(zero, 0)

    def partial_coefficient(self, fixed):
        """Sub-series of the terms matching given exponents, with those slots zeroed.

        `fixed` maps variable names to required exponents; the returned series
        lives in the same context with the matched exponents removed.
        """
        ctx = self.context
        idx = {ctx.index(name): e for name, e in fixed.items()}
        out = {}
        for m, c in self.terms.items():
            if all(m[i] == e for i, e in idx.items()):
                stripped = tuple(0 if i in idx else e for i, e in enumerate(m))
                out[stripped] = c
        return Series(ctx, out, _trusted=True)

    def split(self, name, into, count=None):
        """[c_0, c_1, ...] with self = sum_k c_k name^k, each c_k in `into`.

        The list is `[self.partial_coefficient({name: k}).to_context(into)
        for k in range(count)]`, built in one sweep over the terms instead of
        one per power: terms above the truncation of `into` are dropped, and a
        variable that occurs in some c_k but is missing from `into`, or
        differs there, raises `ContextMismatch`.  `count` defaults to one
        more than the highest power of `name` present.
        """
        ctx = self.context
        i = ctx.index(name)
        if count is None:
            count = 1 + max((m[i] for m in self.terms), default=-1)
        kept = [m for m in self.terms if m[i] < count]
        order = _slots(ctx, into, {i}, kept)
        # a moved term keeps its weight but for `name`: only a lower N cuts
        N, weight, check = into.truncation, into.weight, into.truncation < ctx.truncation
        parts = [{} for _ in range(count)]
        for m in kept:
            base = tuple(map((m + (0,)).__getitem__, order))
            if not check or weight(base) <= N:
                parts[m[i]][base] = self.terms[m]
        return [Series(into, p, _trusted=True) for p in parts]

    def min_weight(self):
        if not self.terms:
            return None
        w = self.context.weight
        return min(w(m) for m in self.terms)

    def weight_component(self, k):
        w = self.context.weight
        return Series(self.context, {m: c for m, c in self.terms.items() if w(m) == k}, _trusted=True)

    # -- ring operations -----------------------------------------------------

    def _check_ctx(self, other):
        if self.context != other.context:
            raise ContextMismatch("incompatible contexts")

    def __add__(self, other):
        if not isinstance(other, Series):
            other = self.context.const(other)
        self._check_ctx(other)
        out = dict(self.terms)
        get = out.get
        for m, c in other.terms.items():
            s = get(m, 0) + c
            if not s:
                out.pop(m, None)
            elif type(s) is int or s.denominator != 1:
                out[m] = s
            else:
                out[m] = s.numerator
        return Series(self.context, out, _trusted=True)

    __radd__ = __add__

    def __neg__(self):
        return Series(self.context, {m: -c for m, c in self.terms.items()}, _trusted=True)

    def __sub__(self, other):
        if not isinstance(other, Series):
            other = self.context.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series):
            q = _coerce_coeff(other)
            terms = _clean({m: c * q for m, c in self.terms.items()})
            return Series(self.context, terms, _trusted=True)
        return sum_of_products(self.context, ((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise CalculusError("exponent must be a non-negative integer")
        result = self.context.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, Series):
            return self.context == other.context and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return self.is_zero
            zero = (0,) * len(self.context.variables)
            return self.terms == {zero: q}
        return NotImplemented

    __hash__ = None

    # -- substitution --------------------------------------------------------

    def substitute(self, mapping, into=None):
        """Substitute series (or scalars) for variables, landing in `into`.

        Every mapped nilpotent variable must receive zero or a series of
        weight at least its degree, so that truncation commutes with the
        substitution.  Variables that are not mapped but occur in a term must
        exist in the target context with the same degree and nilpotency.  The
        target is `into`, or this series' own context when `into` is None;
        a series image from any other context raises `ContextMismatch`.
        """
        ctx = self.context
        target = ctx if into is None else into
        images = {}
        for name, val in mapping.items():
            i = ctx.index(name)
            if isinstance(val, Series):
                if val.context != target:
                    raise ContextMismatch("incompatible contexts")
                img = val
            else:
                img = target.const(val)
            v = ctx.variables[i]
            if v.nilpotent and img.terms and img.min_weight() < v.degree:
                raise SubstitutionError("non-nilpotent substitution")
            images[i] = img
        if not self.terms:
            return target.zero()
        order = _slots(ctx, target, images, self.terms)
        mapped_idx = sorted(images)
        nt = len(target.variables)
        N = target.truncation
        weight = target.weight
        one = [(0, (0,) * nt, 1)]
        # powers of each image, and the product of image powers of each
        # profile (exponents of the first mapped variables), as weight-sorted
        # term lists: a profile's product is the power of its last variable
        # times the product of its prefix, one product per profile
        powers = [[one, _by_weight(target, images[i].terms)] for i in mapped_idx]
        products = {(): one}
        out = {}
        for m, c in self.terms.items():
            prof = tuple(m[i] for i in mapped_idx)
            P = products.get(prof)
            if P is None:
                n = len(prof) - 1
                while prof[:n] not in products:
                    n -= 1
                P = products[prof[:n]]
                for k in range(n, len(prof)):
                    e, pw = prof[k], powers[k]
                    while len(pw) <= e:
                        pw.append(_product(target, pw[-1], pw[1]))
                    if P is one:
                        P = pw[e]
                    elif e:
                        P = _product(target, P, pw[e])
                    products[prof[: k + 1]] = P
            base = tuple(map((m + (0,)).__getitem__, order))
            _mac(out, [(weight(base), base, c)], P, N)
        return Series(target, _clean(out), _trusted=True)

    def to_context(self, target):
        """Reinterpret in another context (same-named variables), retruncating."""
        return self.substitute({}, into=target)

    # -- presentation --------------------------------------------------------

    def sorted_terms(self):
        ctx = self.context
        return sorted(self.terms.items(), key=lambda mc: _term_key(ctx, mc[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.context.names
        pieces = []
        for m, c in self.sorted_terms():
            mag = -c if c < 0 else c
            if any(m):
                mono = _monomial_text(names, m)
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"<Series {self} | {self.context!r}>"

    def to_json_obj(self):
        names = self.context.names
        terms = []
        for m, c in self.sorted_terms():
            mono = {name: e for name, e in zip(names, m) if e}
            terms.append({"monomial": mono, "coeff": str(c)})
        return {"terms": terms}


def first_difference(a, b):
    """First differing term of two series in canonical order, or None.

    Returns (monomial string, coefficient of a, coefficient of b).
    """
    a._check_ctx(b)
    if a.terms == b.terms:
        return None
    ctx = a.context
    monos = set(a.terms) | set(b.terms)
    for m in sorted(monos, key=lambda m: _term_key(ctx, m)):
        ca = a.terms.get(m, 0)
        cb = b.terms.get(m, 0)
        if ca != cb:
            return (_monomial_text(ctx.names, m), ca, cb)
    return None


def _monomial_text(names, m):
    """A monomial as printed: x*y^2, or 1 for the empty one."""
    return "*".join([n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]) or "1"


# -- units and exact division ------------------------------------------------


def _components(s):
    """{weight: [(weight, monomial, coefficient), ...]} for a series."""
    out = {}
    for t in _by_weight(s.context, s.terms):
        out.setdefault(t[0], []).append(t)
    return out


def _solve_by_weight(f, y0, top, finish):
    """The terms of y, solved weight by weight from its weight-0 terms `y0`.

    y_w = finish(w, sum_{j>=1} f_j y_(w-j)) for w = 1..top, where `f` maps a
    weight j >= 1 to the terms of f_j as `_components` lists them and
    `finish` turns the accumulated term dict into the terms of y_w.  Each
    weight is one convolution of f with the known part of y, through `_mac`,
    so the whole solve costs about one product.  A weight-0 generator (an
    m_i) rides along in the monomials and never shifts a weight.  The weights
    are labels: a quotient by a divisor of lowest weight d labels the
    divisor's weight-(d+j) component j, so y_w holds terms of weight w and
    the convolution terms of weight w + d.
    """
    ys = {0: [(0, m, c) for m, c in y0.items()]}
    for w in range(1, top + 1):
        comp = {}
        for j, fj in f.items():
            yj = ys.get(w - j)
            if yj:
                _mac(comp, fj, yj, w)
        yw = finish(w, comp)
        if yw:
            ys[w] = [(w, m, c) for m, c in yw.items()]
    return {m: c for items in ys.values() for _, m, c in items}


def invert_unit(a: Series) -> Series:
    """Multiplicative inverse of a series whose weight-0 part is a nonzero constant.

    A weight-0 term in a non-nilpotent generator, as in 1 + m1, is never
    truncated away, so such a series has no inverse in the truncated ring.
    With q = 1/a and c0 the constant term, q_w = -(1/c0) sum_{j>=1} a_j q_(w-j).
    """
    ctx = a.context
    c0 = a.constant_term
    # the components of a by weight; the weight-0 one must be c0 alone
    by_weight = _components(a)
    if c0 == 0 or len(by_weight.pop(0, ())) != 1:
        raise NotAUnit("not a unit")
    inv0 = div_coeff(1, c0)
    f = {j: [(j, m, -inv0 * c) for _, m, c in items] for j, items in by_weight.items()}
    y = _solve_by_weight(f, ctx.const(inv0).terms, ctx.truncation, lambda w, comp: _clean(comp))
    return Series(ctx, y, _trusted=True)


def _divide_homogeneous(num, den, names):
    """Divide weight-homogeneous term dicts exactly; raise NotDivisible otherwise.

    Reduction by the lexicographically leading monomial of `den`; lex order on
    exponent tuples is multiplication-compatible and well-ordered, so the loop
    terminates even when the division fails.  The failure names the leading
    monomial of the remainder that the leading monomial of `den` does not
    divide; `names` spells both.
    """
    lm_d = max(den)
    lc_d = den[lm_d]
    rest = [(m, c) for m, c in den.items() if m != lm_d]
    p = dict(num)
    q = {}
    while p:
        lm_p = max(p)
        diff = tuple(a - b for a, b in zip(lm_p, lm_d))
        if any(e < 0 for e in diff):
            raise NotDivisible(
                f"not divisible: remainder term {_monomial_text(names, lm_p)}"
                f" is no multiple of {_monomial_text(names, lm_d)}"
            )
        c = div_coeff(p[lm_p], lc_d)
        q[diff] = q.get(diff, 0) + c
        del p[lm_p]
        for md, cd in rest:
            key = tuple(map(add, diff, md))
            s = p.get(key, 0) - c * cd
            if s:
                p[key] = s
            elif key in p:
                del p[key]
    return _clean(q)


def exact_divide(num: Series, den: Series) -> Series:
    """Exact quotient q = num/den; raises NotDivisible on any nonzero remainder.

    With d the lowest weight of the divisor, q is solved weight by weight,
    q_k = (num_(k+d) - sum_{j>=1} den_(d+j) q_(k-j)) / den_d for k = 0..N-d,
    each step an exact division by the divisor's lowest-weight component.
    So the divisor need not be a unit (e.g. dividing by a Vandermonde product
    or by a single nilpotent variable is fine as long as the division is
    exact within the truncation order).  A failure names the weight k + d of
    the step that failed, the truncation and the monomial left over, or the
    two lowest weights when num starts below den.
    """
    num._check_ctx(den)
    ctx = num.context
    if den.is_zero:
        raise NotDivisible("division by zero series")
    if num.is_zero:
        return ctx.zero()
    nums, dens = _components(num), _components(den)
    d, N = min(dens), ctx.truncation
    if min(nums) < d:
        raise NotDivisible(
            f"not divisible: numerator of lowest weight {min(nums)}"
            f" below divisor of lowest weight {d}"
        )
    low = {m: c for _, m, c in dens.pop(d)}
    f = {w - d: [(w - d, m, -c) for _, m, c in items] for w, items in dens.items()}

    def finish(k, comp):
        for _, m, c in nums.get(k + d, ()):
            comp[m] = comp.get(m, 0) + c
        try:
            return _divide_homogeneous(_clean(comp), low, ctx.names)
        except NotDivisible as exc:
            raise NotDivisible(f"{exc} (weight {k + d}, truncation {N})") from None

    q = _solve_by_weight(f, finish(0, {}), N - d, finish)
    return Series(ctx, q, _trusted=True)


# -- symmetric functions -------------------------------------------------------


def elementary_symmetric(values, k, one=None):
    """e_k of a list of series (or the full list e_0..e_len as `None` k).

    Computed by the stable product recurrence; e_k is zero for k above the
    number of values.  `values` must be non-empty series over a common
    context unless `one` supplies the ring unit.
    """
    if k is not None and k < 0:
        raise CalculusError("elementary symmetric index must be non-negative")
    if one is None:
        if not values:
            raise CalculusError("elementary_symmetric of no values needs `one`")
        one = values[0].context.one()
    if k is not None and k > len(values):
        return one.context.zero()
    es = [one] + [one.context.zero()] * len(values)
    for v in values:
        for j in range(len(es) - 1, 0, -1):
            es[j] = es[j] + es[j - 1] * v
    if k is None:
        return es
    return es[k]


def symmetric_reduce(p: Series, roots, targets) -> Series:
    """Rewrite a series symmetric in `roots` as a polynomial in `targets`.

    `targets[k-1]` stands for the k-th elementary symmetric function of the
    root variables and must be declared with matching degree.  The result
    contains no root variables; substituting e_k(roots) back for the targets
    recovers `p` exactly.
    """
    ctx = p.context
    r = len(roots)
    if len(targets) != r:
        raise CalculusError("need one target per root")
    r_idx = [ctx.index(n) for n in roots]
    t_idx = [ctx.index(n) for n in targets]
    if set(r_idx) & set(t_idx):
        raise CalculusError("roots and targets overlap")
    root_deg = ctx.variables[r_idx[0]].degree
    for i in r_idx:
        if not ctx.variables[i].nilpotent or ctx.variables[i].degree != root_deg:
            raise CalculusError("roots must be nilpotent of equal degree")
    for k, i in enumerate(t_idx, start=1):
        if ctx.variables[i].degree != k * root_deg:
            raise CalculusError(f"target {ctx.names[i]!r} must have degree {k * root_deg}")
    for i in t_idx:
        for m in p.terms:
            if m[i]:
                raise CalculusError("input already contains a target variable")
    # symmetry check: invariance under all adjacent transpositions
    for a in range(r - 1):
        ia, ib = r_idx[a], r_idx[a + 1]
        for m, c in p.terms.items():
            if m[ia] == m[ib]:
                continue
            swapped = list(m)
            swapped[ia], swapped[ib] = swapped[ib], swapped[ia]
            if p.terms.get(tuple(swapped), 0) != c:
                raise NotSymmetric("not symmetric")
    e_expanded = [None]  # e_k of the root variables as series, 1-indexed
    root_series = [ctx.var(n) for n in roots]
    e_expanded.extend(elementary_symmetric(root_series, None)[1:])
    # Each remainder is symmetric too, so its largest root exponent tuple
    # is non-increasing (a partition), and no root exponent reaches `out`.
    work = dict(p.terms)
    out = {}
    while work:
        lam = max(tuple(m[i] for i in r_idx) for m in work)
        if not any(lam):
            for m, c in work.items():
                out[m] = out.get(m, 0) + c
            break
        cof = {}
        for m, c in work.items():
            if tuple(m[i] for i in r_idx) == lam:
                stripped = list(m)
                for i in r_idx:
                    stripped[i] = 0
                cof[tuple(stripped)] = c
        # multiplicities a_k = lam_k - lam_{k+1} give the e-product and t-monomial
        mult = [lam[a] - (lam[a + 1] if a + 1 < r else 0) for a in range(r)]
        t_shift = [0] * len(ctx.variables)
        for k, a in enumerate(mult):
            t_shift[t_idx[k]] = a
        t_shift = tuple(t_shift)
        for m, c in cof.items():
            key = tuple(x + y for x, y in zip(m, t_shift))
            out[key] = out.get(key, 0) + c
        e_prod = ctx.one()
        for k, a in enumerate(mult, start=1):
            for _ in range(a):
                e_prod = e_prod * e_expanded[k]
        work = (Series(ctx, work, _trusted=True) - Series(ctx, cof, _trusted=True) * e_prod).terms
    return Series(ctx, _clean(out), _trusted=True)


# -- univariate composition helpers -------------------------------------------


def compose_coeffs(coeff_fn, s: Series) -> Series:
    """Sum coeff_fn(k) * s**k over 0 <= k <= N, one substitution of s into z.

    The polynomial sum_k coeff_fn(k) z^k is built over a one-variable
    context at s's truncation N.  `s` must be nilpotent (every term of
    weight at least 1), so that s**k vanishes for k above N.  `exp_of` and
    `log1p_of` solve weight by weight instead; the one caller left is
    `todd_factor`.
    """
    N = s.context.truncation
    z = Context([Var("z", 1, True)], N)
    f = z.series({(k,): coeff_fn(k) for k in range(N + 1)})
    return f.substitute({"z": s}, into=s.context)


def _nilpotent_components(s: Series):
    """`_components` of s, which must have no term of weight 0."""
    by_weight = _components(s)
    if 0 in by_weight:
        raise SubstitutionError("non-nilpotent substitution")
    return by_weight


def exp_of(s: Series) -> Series:
    """exp(s) for a nilpotent series s.

    With D the weight derivation (D m = weight(m) m), D exp(s) = exp(s) D(s),
    so A = exp(s) has A_0 = 1 and w A_w = sum_{j>=1} j s_j A_(w-j).
    """
    ctx = s.context
    ds = {
        j: [(j, m, _coerce_coeff(j * c)) for _, m, c in items]
        for j, items in _nilpotent_components(s).items()
    }
    y = _solve_by_weight(
        ds, ctx.one().terms, ctx.truncation,
        lambda w, comp: {m: div_coeff(c, w) for m, c in comp.items() if c},
    )
    return Series(ctx, y, _trusted=True)


def log1p_of(s: Series) -> Series:
    """log(1 + s) for a nilpotent series s.

    D L = D(s) / (1 + s) for L = log(1 + s), so y = D L solves
    y_w = w s_w - sum_{j<w} s_j y_(w-j), and L_w = y_w / w.
    """
    ctx = s.context
    by_weight = _nilpotent_components(s)
    neg = {j: [(j, m, -c) for _, m, c in items] for j, items in by_weight.items()}

    def finish(w, comp):
        for _, m, c in by_weight.get(w, ()):
            comp[m] = comp.get(m, 0) + w * c
        return _clean(comp)

    y = _solve_by_weight(neg, {}, ctx.truncation, finish)
    weight = ctx.weight
    return Series(ctx, {m: div_coeff(c, weight(m)) for m, c in y.items()}, _trusted=True)
