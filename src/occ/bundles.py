"""Chern-class calculus for split bundles via the splitting principle.

A bundle is represented by its ordered list of line roots: series with zero
constant term over a common geometry context.  Chern classes are the
elementary symmetric functions of the roots, the Euler class is their
product, duals apply the formal inverse root by root, and twisting by a line
applies the group law root by root.  Whitney's formula is concatenation of
root lists.  Because roots are nilpotent, every Chern class of positive
index is nilpotent, and c_k vanishes above the rank.
"""

from __future__ import annotations

import random

from .series import (
    CalculusError,
    Series,
    elementary_symmetric,
)
from .reports import CheckItem, Report, difference_detail


class SplitBundle:
    """A formal direct sum of lines: an ordered tuple of root classes."""

    def __init__(self, law, roots):
        roots = tuple(roots)
        if not roots:
            raise CalculusError("a split bundle needs at least one root")
        ctx = roots[0].context
        for x in roots:
            if x.context != ctx:
                raise CalculusError("incompatible contexts")
            if x.constant_term != 0:
                raise CalculusError("roots must have zero constant term")
        self.law = law
        self.roots = roots
        self.context = ctx

    @property
    def rank(self):
        return len(self.roots)

    def __repr__(self):
        rs = ", ".join(str(x) for x in self.roots)
        return f"<SplitBundle rank {self.rank}: [{rs}]>"

    def chern(self, k) -> Series:
        """The k-th Chern class e_k(roots); zero above the rank."""
        if k < 0:
            raise CalculusError("Chern index must be non-negative")
        return elementary_symmetric(self.roots, k, one=self.context.one())

    def total_chern(self) -> Series:
        es = elementary_symmetric(self.roots, None, one=self.context.one())
        total = self.context.zero()
        for e in es:
            total = total + e
        return total

    def euler(self) -> Series:
        return self.chern(self.rank)

    def dual(self) -> "SplitBundle":
        return SplitBundle(self.law, [self.law.inverse_at(x) for x in self.roots])

    def twist_by_line(self, line: Series) -> "SplitBundle":
        """Tensor with the line whose first Chern class is `line`."""
        if line.context != self.context:
            raise CalculusError("incompatible contexts")
        return SplitBundle(self.law, [self.law.apply(x, line) for x in self.roots])

    def direct_sum(self, other: "SplitBundle") -> "SplitBundle":
        if other.context != self.context or other.law is not self.law:
            raise CalculusError("incompatible contexts")
        return SplitBundle(self.law, self.roots + other.roots)

    def pb_relation_poly(self, t: str) -> Series:
        """The defining relation f(t) = sum_i (-1)^i c_{r-i}(E^dual) t^i.

        Returned over the context extended by a fresh degree-1 nilpotent
        variable `t`; equals prod_i (iota(x_i) - t), so it is
        weight-homogeneous of weight r with leading coefficient (-1)^r.
        It is the relation of the ring of P(E).
        """
        from .projective import ProjBundleRing

        return ProjBundleRing(self, t).relation

    def relation_coefficients(self) -> list:
        """[a_0..a_r] with f(t) = sum a_i t^i, each a_i in the bundle's context."""
        es = elementary_symmetric(self.dual().roots, None, one=self.context.one())
        return [es[self.rank - i] * ((-1) ** i) for i in range(self.rank + 1)]


def _random_root(rng, law, vs):
    x = vs[rng.randrange(len(vs))]
    style = rng.randrange(4)
    if style == 1:
        x = law.apply(x, vs[rng.randrange(len(vs))])
    elif style == 2:
        x = law.inverse_at(x)
    elif style == 3:
        x = law.apply(x, law.inverse_at(vs[rng.randrange(len(vs))]))
    return x


def whitney_check(truncation: int = 6, cases: int = 50, seed: int = 0) -> Report:
    """c(E + F) = c(E) c(F) on randomized split bundles, exactly.

    Each case draws a law, a context of 1..4 class variables, and two
    bundles of rank <= 3 whose roots are random group-law combinations of
    the variables and their inverses.  Seeded, so reruns are identical.
    """
    rng = random.Random(seed)
    kinds = ("additive", "multiplicative", "universal")
    from .fgl import make_law

    laws = {k: make_law(k, truncation) for k in kinds}
    items = []
    for case in range(cases):
        kind = kinds[case % 3]
        law = laws[kind]
        nvars = rng.randint(1, 4)
        ctx = law.geometry_context([f"v{i}" for i in range(1, nvars + 1)])
        vs = [ctx.var(f"v{i}") for i in range(1, nvars + 1)]
        e = SplitBundle(law, [_random_root(rng, law, vs) for _ in range(rng.randint(1, 3))])
        f = SplitBundle(law, [_random_root(rng, law, vs) for _ in range(rng.randint(1, 3))])
        lhs = e.direct_sum(f).total_chern()
        rhs = e.total_chern() * f.total_chern()
        detail = difference_detail(lhs, rhs)
        name = f"whitney-{case:02d}[{kind},{e.rank}+{f.rank},vars={nvars}]"
        items.append(CheckItem(name, not detail, detail))
    return Report(f"whitney[N={truncation},cases={cases}]", tuple(items))
