"""Every `occ check` suite can fail: one-line faults planted in the library.

Each fault below is a monkeypatch that changes one line of the library.  A
fault runs against a fresh `fgl._SHARED`, so no law or template built under
it outlives it.  The six suites run at N = 3 and 5 under each fault; the
set of suites that fail or raise is pinned.  A suite that stops catching a
fault it caught, or a fault that no suite catches any more, fails here:
a check that compares a value with itself passes under every fault.
"""

from fractions import Fraction

import pytest

from occ import bundles, fgl, projective, specialization
from occ.cli import SUITES, build_suite
from occ.series import CalculusError, NotDivisible, Series
from occ.specialization import SpecializationMap, todd_factor

ORDERS = (3, 5)


def elementary_symmetric_upwards(values, k, one=None):
    """`series.elementary_symmetric` with its inner loop run upwards."""
    es = [one] + [one.context.zero()] * len(values)
    for v in values:
        for j in range(1, len(es)):
            es[j] = es[j] + es[j - 1] * v
    return es if k is None else es[k]


def revert_one_weight_early(f, x):
    """`fgl._revert` with its loop stopping one weight below the truncation."""
    xs = f.context.var(x)
    g = xs
    for w in range(2, f.context.truncation):
        g = g - (f.substitute({x: g}) - xs).weight_component(w)
    return g


def line_class_at_u_u(law):
    """`projective._line_class` evaluating b at (u, u) instead of (u, iota(u))."""
    if "line" not in law._templates:
        hi = law.at_truncation(law.truncation + 2)
        minus_b = {(i - 1, j - 1, *m): -c for (i, j, *m), c in hi.F.terms.items() if i and j}
        ctx = law.geometry_context(["u"])
        u = ctx.var("u")
        G = Series(hi.context, minus_b, _trusted=True)
        law._templates["line"] = G.substitute({hi.x: u, hi.y: u}, into=ctx)
    return law._templates["line"]


def to_multiplicative_shifted(law):
    """The Todd map with m_i = 1/(i+2) instead of 1/(i+1)."""
    return SpecializationMap({v.name: Fraction(1, 2 - v.degree) for v in law.generators})


# fault: (module or class, attribute, replacement)
FAULTS = {
    "elementary-symmetric-upwards": (bundles, "elementary_symmetric", elementary_symmetric_upwards),
    "todd-factor-negated": (specialization, "todd_factor", lambda root: -todd_factor(root)),
    "todd-map-shifted": (SpecializationMap, "to_multiplicative", staticmethod(to_multiplicative_shifted)),
    "revert-one-weight-early": (fgl, "_revert", revert_one_weight_early),
    "line-class-at-u-u": (projective, "_line_class", line_class_at_u_u),
}

# fault: {(suite, N): "fail" for a failed report, or the name of the raised error}
CAUGHT = {
    "elementary-symmetric-upwards": {
        ("whitney", 3): "fail",
        ("whitney", 5): "fail",
        ("pbf", 3): "fail",
        ("pbf", 5): "fail",
        ("fgl-theorem", 5): "fail",
    },
    "todd-factor-negated": {("grr", 3): "fail", ("grr", 5): "fail"},
    "todd-map-shifted": {("cf", 3): "fail", ("cf", 5): "fail"},
    "revert-one-weight-early": {
        ("fgl-axioms", 3): "fail",
        ("fgl-axioms", 5): "fail",
        ("pbf", 3): "fail",
        ("pbf", 5): "fail",
        ("cf", 3): NotDivisible.__name__,
        ("cf", 5): NotDivisible.__name__,
        ("fgl-theorem", 3): NotDivisible.__name__,
        ("fgl-theorem", 5): NotDivisible.__name__,
    },
    "line-class-at-u-u": {("fgl-theorem", 3): "fail", ("fgl-theorem", 5): "fail"},
}


def caught_by_suites():
    """{(suite, N): "fail" or the raised error's name} over the suites that do not pass."""
    caught = {}
    for suite in SUITES:
        for n in ORDERS:
            try:
                passed = build_suite(suite, n).passed
            except CalculusError as exc:
                caught[suite, n] = type(exc).__name__
            else:
                if not passed:
                    caught[suite, n] = "fail"
    return caught


def test_every_suite_passes_without_a_fault():
    assert caught_by_suites() == {}


@pytest.mark.parametrize("fault", FAULTS)
def test_planted_fault_is_caught_by_the_pinned_suites(monkeypatch, fault):
    shared = {kind: fgl.make_law(kind, 5) for kind in fgl.KINDS}
    with monkeypatch.context() as patch:
        patch.setattr(fgl, "_SHARED", {})
        patch.setattr(*FAULTS[fault])
        caught = caught_by_suites()
    assert caught == CAUGHT[fault]
    # the laws built under the fault went with its `_SHARED`
    assert all(fgl.make_law(kind, 5) is law for kind, law in shared.items())


def test_each_suite_catches_a_fault_and_each_fault_is_caught():
    assert set(CAUGHT) == set(FAULTS)
    assert all(CAUGHT.values())
    assert {suite for caught in CAUGHT.values() for suite, _ in caught} == set(SUITES)
