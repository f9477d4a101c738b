"""Outside-in tracer: wraps public functions of each `occ` layer.

`Tracer.install()` replaces every binding of each traced function -- the
defining attribute, re-imports in other `occ` modules and `occ/__init__`,
and class aliases such as `Series.__rmul__` -- with a wrapper that records
one span per call.  `uninstall()` puts the original objects back.

A span is (name, start, end, parent span, op id, duration).  Durations
exclude the tracer's own bookkeeping inside the span, so the self time of a
span (its duration minus its children's durations) is program time.  The
counters below are computed from outside, from arguments and results, and
their cost is bookkeeping too.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

MODULES = ("series", "fgl", "bundles", "projective", "specialization", "exprs", "reports", "cli")

# layer name -> [(module, owner attribute or None, function attribute)]
TARGETS = {
    "series.mul": [("series", "Series", "__mul__")],
    "series.add": [("series", "Series", "__add__")],
    "series.substitute": [("series", "Series", "substitute")],
    "series.invert_unit": [("series", None, "invert_unit")],
    "series.exact_divide": [("series", None, "exact_divide")],
    "series.symmetric_reduce": [("series", None, "symmetric_reduce")],
    "series.compose": [("series", None, "compose_coeffs")],
    "series.format": [("series", "Series", "__str__"), ("series", "Series", "to_json_obj")],
    "fgl.make_law": [("fgl", None, "make_law")],
    "fgl.at_truncation": [("fgl", "FormalGroupLaw", "at_truncation")],
    "fgl.apply": [("fgl", "FormalGroupLaw", "apply")],
    "fgl.formal_inverse": [("fgl", "FormalGroupLaw", "formal_inverse")],
    "fgl.formal_sum_n": [("fgl", "FormalGroupLaw", "formal_sum_n")],
    "bundles.chern": [("bundles", "SplitBundle", "chern")],
    "bundles.dual_twist": [("bundles", "SplitBundle", "dual"), ("bundles", "SplitBundle", "twist_by_line")],
    "bundles.relation": [
        ("bundles", "SplitBundle", "relation_coefficients"),
        ("bundles", "SplitBundle", "pb_relation_poly"),
    ],
    "projective.ring_init": [("projective", "ProjBundleRing", "__init__")],
    "projective.reduce": [("projective", "ProjBundleRing", "reduce")],
    "projective.pushforward": [("projective", "ProjBundleRing", "pushforward")],
    "projective.tower_classes": [("projective", None, "tower_classes")],
    "specialization.specialize": [("specialization", None, "specialize")],
    "specialization.todd": [("specialization", None, "todd")],
    "specialization.euler_char": [("specialization", None, "k_euler_characteristic")],
    "exprs.evaluate": [("exprs", None, "evaluate")],
    "reports.render": [("reports", "Report", "lines"), ("reports", "Report", "to_json_obj")],
    "cli.main": [("cli", None, "main")],
}


def _owners():
    """Every `occ` module and class that may hold a binding of a traced function."""
    import importlib

    import occ

    mods = [occ] + [importlib.import_module(f"occ.{m}") for m in MODULES]
    classes = {
        obj
        for m in mods
        for obj in vars(m).values()
        if isinstance(obj, type) and obj.__module__.startswith("occ.")
    }
    return mods + sorted(classes, key=lambda c: (c.__module__, c.__qualname__))


def _originals():
    """{id(function): (layer name, function)} for the defining binding of each."""
    import importlib

    out = {}
    for name, targets in TARGETS.items():
        for mod, owner, attr in targets:
            m = importlib.import_module(f"occ.{mod}")
            fn = vars(getattr(m, owner) if owner else m)[attr]
            out[id(fn)] = (name, fn)
    return out


def bindings():
    """[(owner, attribute, object)] for every binding of a traced function."""
    originals = _originals()
    return [
        (owner, key, value)
        for owner in _owners()
        for key, value in list(vars(owner).items())
        if id(value) in originals and originals[id(value)][1] is value
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.overhead = 0.0
        self.counters = defaultdict(int)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self._patched = []
        self._seen = defaultdict(dict)

    # -- installation --------------------------------------------------------

    def install(self):
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in _originals().items()}
        for owner, key, value in bindings():
            # setattr on a class also updates its type slots (nb_multiply, ...)
            setattr(owner, key, wrappers[id(value)])
            self._patched.append((owner, key, value))

    def uninstall(self):
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched = []

    # -- the wrapper -----------------------------------------------------------

    def _wrap(self, name, fn):
        tr = self
        counter = getattr(self, "_count_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            t_in = perf_counter()
            sid = len(tr.spans)
            tr.spans.append(None)
            parent = tr.stack[-1] if tr.stack else -1
            tr.stack.append(sid)
            ov0 = tr.overhead
            t0 = perf_counter()
            tr.overhead += t0 - t_in
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                tr.stack.pop()
                inner = tr.overhead - ov0 - (t0 - t_in)
                tr.spans[sid] = (name, t0, t1, parent, tr.op, t1 - t0 - inner)
                tr.calls[name] += 1
                if not ok:
                    tr.errors[name] += 1
                elif counter is not None:
                    counter(args, result)
                tr.overhead += perf_counter() - t1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- counters computed from arguments and results ----------------------------

    def _count_series_mul(self, args, result):
        a, b = args
        c = self.counters
        terms = result.terms
        c["series.mul.terms_out"] += len(terms)
        c["series.mul.int_coeffs"] += sum(1 for q in terms.values() if q.denominator == 1)
        if type(b) is not type(a):
            return
        ctx = a.context
        w = ctx.weight
        n = ctx.truncation
        ha = defaultdict(int)
        hb = defaultdict(int)
        for m in a.terms:
            ha[w(m)] += 1
        for m in b.terms:
            hb[w(m)] += 1
        c["series.mul.pairs"] += len(a.terms) * len(b.terms)
        c["series.mul.pairs_kept"] += sum(
            na * nb for wa, na in ha.items() for wb, nb in hb.items() if wa + wb <= n
        )

    def _count_series_substitute(self, args, result):
        self.counters["series.substitute.terms_out"] += len(result.terms)

    def _reuse(self, name, result):
        seen = self._seen[name]
        if id(result) in seen:
            self.counters[name + ".reused"] += 1
        else:
            seen[id(result)] = result  # keep it alive so the id stays unique

    def _count_fgl_at_truncation(self, args, result):
        self._reuse("fgl.at_truncation", result)

    def _count_fgl_formal_inverse(self, args, result):
        self._reuse("fgl.formal_inverse", result)

    def _count_projective_pushforward(self, args, result):
        ring = args[0]
        seen = self._seen["projective.pushforward"]
        if ring.rank >= 2 and id(ring) not in seen:
            seen[id(ring)] = ring
            self.counters["projective.pushforward.cold"] += 1

    def _count_cli_main(self, args, result):
        if result != 0:
            self.counters["cli.main.exit_nonzero"] += 1

    # -- results ---------------------------------------------------------------------

    def layer_stats(self):
        """{metric: value} per layer: calls, self_s, errors, plus the counters."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[5]
        self_s = defaultdict(float)
        for sid, span in enumerate(self.spans):
            if span is not None:
                self_s[span[0]] += span[5] - child_time[sid]
        out = {}
        for name in TARGETS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.errors"] = self.errors[name]
        c = self.counters
        out["series.mul.pairs"] = c["series.mul.pairs"]
        out["series.mul.kept_share"] = _share(c["series.mul.pairs_kept"], c["series.mul.pairs"])
        out["series.mul.terms_out"] = c["series.mul.terms_out"]
        out["series.int_coeff_share"] = _share(c["series.mul.int_coeffs"], c["series.mul.terms_out"])
        out["series.substitute.terms_out"] = c["series.substitute.terms_out"]
        for name in ("fgl.at_truncation", "fgl.formal_inverse"):
            out[f"{name}.reuse_share"] = _share(c[name + ".reused"], self.calls[name])
        out["projective.pushforward.cold_share"] = _share(
            c["projective.pushforward.cold"], self.calls["projective.pushforward"]
        )
        # an exception or SystemExit escaping main is a nonzero exit too
        out["cli.main.exit_nonzero"] = c["cli.main.exit_nonzero"] + self.errors["cli.main"]
        out["trace.spans"] = len(self.spans)
        out["trace.bookkeeping_s"] = self.overhead
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                name, t0, t1, parent, op, dur = span
                fh.write(json.dumps([name, t0, t1, parent, op, dur]) + "\n")


def _share(part, whole):
    return part / whole if whole else 0.0
