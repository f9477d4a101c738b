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
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, itemgetter, mul
from typing import Iterable, NamedTuple

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


class ReductionFailed(CalculusError):
    pass


class Var(NamedTuple):
    name: str
    degree: int
    nilpotent: bool = True


def _coerce_coeff(c):
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)  # a bool becomes 0 or 1
    raise CalculusError(f"coefficient must be an integer or Fraction, got {type(c).__name__}")


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
        return (
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
                mono = tuple(exps)
            else:
                mono = tuple(mono)
                if len(mono) != len(self.variables):
                    raise CalculusError("exponent tuple has wrong length")
            if any(e < 0 for e in mono):
                raise CalculusError("negative exponent")
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


def _product(ctx, a, b):
    """The product of two weight-sorted term lists, as a weight-sorted term list."""
    out = {}
    _mac(out, a, b, ctx.truncation)
    return _by_weight(ctx, _clean(out))


def _term_key(ctx, exps):
    # canonical order: ascending weight, then descending lex in variable order
    return (ctx.weight(exps), tuple(-e for e in exps))


class Series:
    """A truncated power series: a sparse map from exponent tuples to coefficients."""

    __slots__ = ("context", "terms")

    def __init__(self, context, terms, _trusted=False):
        self.context = context
        if _trusted:
            self.terms = terms
        else:
            self.terms = {}
            for m, c in terms.items():
                q = _coerce_coeff(c)
                if q and context.weight(m) <= context.truncation:
                    self.terms[tuple(m)] = q

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
        N, weight = into.truncation, into.weight
        parts = [{} for _ in range(count)]
        for m in kept:
            base = tuple(map((m + (0,)).__getitem__, order))
            if weight(base) <= N:
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

    def is_homogeneous(self, degree):
        d = self.context.degree_of
        return all(d(m) == degree for m in self.terms)

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
        self._check_ctx(other)
        ctx = self.context
        out = {}
        _mac(out, _by_weight(ctx, self.terms), _by_weight(ctx, other.terms), ctx.truncation)
        return Series(ctx, _clean(out), _trusted=True)

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
        target context defaults to the context of the first series image, or
        to this series' own context when the mapping is scalar-only.
        """
        ctx = self.context
        target = into
        if target is None:
            for v in mapping.values():
                if isinstance(v, Series):
                    target = v.context
                    break
        if target is None:
            target = ctx
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
            factors = []
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            mag = -c if c < 0 else c
            if mono:
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
    ctx = a.context
    monos = set(a.terms) | set(b.terms)
    for m in sorted(monos, key=lambda m: _term_key(ctx, m)):
        ca = a.terms.get(m, 0)
        cb = b.terms.get(m, 0)
        if ca != cb:
            name = "*".join(
                n if e == 1 else f"{n}^{e}" for n, e in zip(ctx.names, m) if e
            ) or "1"
            return (name, ca, cb)
    return None


# -- units and exact division ------------------------------------------------


def _components(ctx, terms):
    """{weight: [(weight, monomial, coefficient), ...]} for a term dict."""
    out = {}
    for t in _by_weight(ctx, terms):
        out.setdefault(t[0], []).append(t)
    return out


def _solve_by_weight(ctx, f, y0, finish):
    """The terms of y, solved weight by weight from the constant term `y0`.

    y_w = finish(w, sum_{j>=1} f_j y_(w-j)) for w = 1..N, where `f` maps a
    weight j >= 1 to the terms of f_j as `_components` lists them and
    `finish` turns the accumulated term dict into the terms of y_w.  Each
    weight is one convolution of f with the known part of y, through `_mac`,
    so the whole solve costs about one product.  A weight-0 generator (an
    m_i) rides along in the monomials and never shifts a weight.
    """
    ys = {0: [(0, (0,) * len(ctx.variables), y0)]} if y0 else {}
    for w in range(1, ctx.truncation + 1):
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
    by_weight = _components(ctx, a.terms)
    if c0 == 0 or len(by_weight.pop(0, ())) != 1:
        raise NotAUnit("not a unit")
    inv0 = div_coeff(1, c0)
    f = {j: [(j, m, -inv0 * c) for _, m, c in items] for j, items in by_weight.items()}
    return Series(ctx, _solve_by_weight(ctx, f, inv0, lambda w, comp: _clean(comp)), _trusted=True)


def _divide_homogeneous(ctx, num, den):
    """Divide weight-homogeneous term dicts exactly; raise NotDivisible otherwise.

    Reduction by the lexicographically leading monomial of `den`; lex order on
    exponent tuples is multiplication-compatible and well-ordered, so the loop
    terminates even when the division fails.
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
            raise NotDivisible("not divisible")
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
    """Exact quotient num/den; raises NotDivisible on any nonzero remainder.

    Works weight by weight against the lowest-weight homogeneous component of
    the divisor, so the divisor need not be a unit (e.g. dividing by a
    Vandermonde product or by a single nilpotent variable is fine as long as
    the division is exact within the truncation order).
    """
    num._check_ctx(den)
    ctx = num.context
    if den.is_zero:
        raise NotDivisible("division by zero series")
    if num.is_zero:
        return ctx.zero()
    w = ctx.weight
    d = den.min_weight()
    if num.min_weight() < d:
        raise NotDivisible("not divisible")
    den_low = {m: c for m, c in den.terms.items() if w(m) == d}
    neg_den = [(wd, md, -cd) for wd, md, cd in _by_weight(ctx, den.terms)]
    N = ctx.truncation
    rem = dict(num.terms)
    q = {}
    for k in range(0, N - d + 1):
        comp = {m: c for m, c in rem.items() if w(m) == k + d}
        if not comp:
            continue
        qk = _divide_homogeneous(ctx, comp, den_low)
        q.update(qk)
        _mac(rem, [(k, m, c) for m, c in qk.items()], neg_den, N)
        rem = _clean(rem)
    if rem:
        raise NotDivisible("not divisible")
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
    work = dict(p.terms)
    out = {}
    while work:
        lam = max(tuple(m[i] for i in r_idx) for m in work)
        if not any(lam):
            for m, c in work.items():
                out[m] = out.get(m, 0) + c
            break
        if any(lam[a] < lam[a + 1] for a in range(r - 1)):
            raise ReductionFailed("reduction failed")
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
    out = _clean(out)
    for m in out:
        for i in r_idx:
            if m[i]:
                raise ReductionFailed("reduction failed")
    return Series(ctx, out, _trusted=True)


# -- univariate composition helpers -------------------------------------------


def compose_coeffs(coeff_fn, s: Series, start=0) -> Series:
    """Sum coeff_fn(k) * s**k over start <= k <= N, one substitution of s into z.

    The polynomial sum_k coeff_fn(k) z^k is built over a one-variable
    context at s's truncation N.  `s` must be nilpotent (every term of
    weight at least 1), so that s**k vanishes for k above N.  `exp_of` and
    `log1p_of` solve weight by weight instead; the callers left are
    `todd_factor` and `todd_prime_at_dual`.
    """
    N = s.context.truncation
    z = Context([Var("z", 1, True)], N)
    f = z.series({(k,): coeff_fn(k) for k in range(start, N + 1)})
    return f.substitute({"z": s}, into=s.context)


def _nilpotent_components(s: Series):
    """`_components` of s, which must have no term of weight 0."""
    by_weight = _components(s.context, s.terms)
    if 0 in by_weight:
        raise SubstitutionError("non-nilpotent substitution")
    return by_weight


def exp_of(s: Series) -> Series:
    """exp(s) for a nilpotent series s.

    With D the weight derivation (D m = weight(m) m), D exp(s) = exp(s) D(s),
    so A = exp(s) has A_0 = 1 and w A_w = sum_{j>=1} j s_j A_(w-j).
    """
    ctx = s.context
    ds = {j: [(j, m, j * c) for _, m, c in items] for j, items in _nilpotent_components(s).items()}
    y = _solve_by_weight(
        ctx, ds, 1, lambda w, comp: {m: div_coeff(c, w) for m, c in comp.items() if c}
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

    y = _solve_by_weight(ctx, neg, 0, finish)
    weight = ctx.weight
    return Series(ctx, {m: div_coeff(c, weight(m)) for m, c in y.items()}, _trusted=True)
