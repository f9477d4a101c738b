"""K-theory and additive specializations: Euler characteristics, Riemann-Roch.

The multiplicative law models K-theory (a line with Euler class u has class
1 - iota(u) = 1/(1-u)); the additive law models the rational theory where
Todd classes and exponential characters live.  Pushing [O(k)] off a trivial
projective bundle must reproduce binomial coefficients, and the additive
pushforward of ch * Todd must agree.
"""

from occ import (
    conner_floyd_check,
    grr_check,
    k_chi_oracle,
    k_euler_characteristic,
    make_law,
    todd_factor,
    twist_class,
)

print("== chi(P^(r-1), O(k)) by pushforward vs binomial(k+r-1, r-1) ==")
for r in (2, 3, 4):
    row = [str(k_euler_characteristic(r, k)) for k in range(6)]
    oracle = [str(k_chi_oracle(r, k)) for k in range(6)]
    print(f"r={r}: pushforward {row}  oracle {oracle}")

print("\n== K-classes of line bundles ==")
law_m = make_law("multiplicative", 6)
u = law_m.geometry_context(["u"]).var("u")
print("[L]      =", twist_class(law_m, u, 1))
print("[L]*(1-u) - 1 =", twist_class(law_m, u, 1) * (1 - u) - 1)

print("\n== Riemann-Roch on P^1 and P^2 ==")
for r in (2, 3):
    for k in (0, 2, 4):
        rep = grr_check(r, k)
        status = "OK " if rep.passed else "FAIL"
        print(f"{status} r={r} k={k}: both sides = {rep.items[0].actual}")

print("\n== the Todd class inverts through the multiplicative law's exp and log ==")
ctx = law_m.geometry_context(["u", "v"])
u, v = ctx.var("u"), ctx.var("v")
e_m = lambda s: law_m.exp().substitute({"x": s}, into=ctx)
l_m = lambda s: law_m.log().substitute({"x": s}, into=ctx)
print("Td(u)                          =", todd_factor(u))
print("Td(u) * e_m(u) + u             =", todd_factor(u) * e_m(u) + u)
print("Td(l_m(v)) * v + l_m(v)        =", todd_factor(l_m(v)) * v + l_m(v))
print("l_m(F(u,v)) - l_m(u) - l_m(v)  =", l_m(law_m.apply(u, v)) - l_m(u) - l_m(v))

print("\n== universal-to-multiplicative consistency battery ==")
rep = conner_floyd_check(truncation=5, seed=0)
print(rep.lines()[-1])
