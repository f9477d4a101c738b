"""Independent oracles for the pushforward and the Euler characteristic.

Each function here computes by a route of its own what the library
computes by the residue template of `occ.projective`:

* `k_chi_oracle`: chi(P^(r-1), O(k)) as the binomial polynomial in k;
* `log_coordinate_pushforward`: pi_!(t^k) on any split P(E) by
  Riemann-Roch in the logarithmic coordinate (Quillen, 1971), with the
  complete symmetric functions `h_polys`.

This module imports only the series kernel, the laws and the standard
library, so it never reaches the projective-bundle rings or their
templates; `tests/test_oracles.py` checks that by reading the imports.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .series import CalculusError, invert_unit, sum_of_products


def k_chi_oracle(r: int, k: int) -> Fraction:
    """chi(P^(r-1), O(k)) = binomial(k+r-1, r-1), as a polynomial in k.

    Valid for negative k as well (the polynomial extension of the binomial).
    """
    if r < 1:
        raise CalculusError("r must be >= 1")
    num = 1
    for j in range(1, r):
        num *= k + j
    return Fraction(num, factorial(r - 1))


def h_polys(values, n, ctx):
    """Complete homogeneous symmetric functions h_0..h_n of the given values."""
    h = [ctx.one()] + [ctx.zero()] * n
    for y in values:
        for m in range(1, n + 1):
            h[m] = h[m] + y * h[m - 1]
    return h


def log_coordinate_pushforward(law, roots, k, ctx):
    """pi_!(t^k) on P(roots) over ctx, by Riemann-Roch in the logarithmic coordinate.

    With s = l(t), sigma_j = -l(x_j) and Td(y) = y / exp(y):
    pi_!(t^k) = sum_d [s^d](exp(s)^k prod_j Td(s - sigma_j)) h_{d-r+1}(sigma).
    `ctx` is a geometry context of `law`; each root is a function of the
    law and the class variables of `ctx`, in order, so that it can be
    rebuilt with the law raised one order per root above ctx's truncation
    (the sum lowers weight by r - 1 for r roots).  The result is cut back
    to ctx.
    """
    names = [v.name for v in ctx.variables if v not in law.generators]
    hi = law.at_truncation(ctx.truncation + len(roots))
    work = hi.geometry_context(names + ["s"])
    class_vars = [work.var(n) for n in names]
    s = work.var("s")
    x, ix = hi.x, hi.context.index(hi.x)
    sigma = [-hi.log().substitute({x: root(hi, *class_vars)}, into=work) for root in roots]
    exp_over_x = {m[:ix] + (m[ix] - 1,) + m[ix + 1 :]: c for m, c in hi.exp().terms.items()}
    todd = invert_unit(hi.context.series(exp_over_x))
    integrand = hi.exp().substitute({x: s}, into=work) ** k
    for sj in sigma:
        integrand = integrand * todd.substitute({x: s - sj}, into=work)
    # [s^d] for d >= len(roots) - 1 pairs with h_(d - len(roots) + 1)
    parts = integrand.split("s", work, work.truncation + 1)[len(roots) - 1 :]
    hs = h_polys(sigma, work.truncation, work)
    return sum_of_products(work, zip(parts, hs)).to_context(ctx)
