"""In-memory tracing of pvcalc's layers, installed at run time.

Nothing under src/ changes.  install() rebinds each traced function in
every pvcalc module namespace that holds it (validate, for one, is
bound in surface, pvint, birational, zeta and models).  Layer functions
record spans (name, start, end, parent) in memory; kernel calls are
only counted and timed, one aggregate per kernel function, because
there are tens of thousands of them per op.  While `active` is False
every wrapper calls straight through, so oracle checks between ops
leave no trace.

Spans are timed on the tracer's own clock: perf_counter() minus the
time spent in the tracer's bookkeeping inside traced calls (the
ring_sum term count, the cache-hit counters).  That bookkeeping thus
adds to no span's duration or self time; trace.overhead_ratio, which
compares whole passes, still includes it.
"""

import json
import sys
from collections import Counter
from time import perf_counter

# (metric name, module, attribute) of the functions that get a span
SPANS = (
    ("motring.ring_sum", "pvcalc.motring", "ring_sum"),
    ("motring.euler_realize", "pvcalc.motring", "euler_realize"),
    ("motring.numeric_eval", "pvcalc.motring", "numeric_eval"),
    ("surface.validate", "pvcalc.surface", "validate"),
    ("surface.stratum_class", "pvcalc.surface", "stratum_class"),
    ("pvint.invariant_sum", "pvcalc.pvint", "invariant_sum"),
    ("birational.blow_up", "pvcalc.birational", "blow_up"),
    ("birational.invariance_delta", "pvcalc.birational", "invariance_delta"),
    ("birational.exceptional_alphas", "pvcalc.birational",
     "exceptional_alphas"),
    ("zeta.residue_contribution", "pvcalc.zeta", "residue_contribution"),
    ("zeta.pole_report", "pvcalc.zeta", "pole_report"),
    ("zeta.zmot_from_surface", "pvcalc.zeta", "zmot_from_surface"),
    ("zeta.residue_via_substitution", "pvcalc.zeta",
     "residue_via_substitution"),
)
KERNEL_OPS = ("pcyclo_mul", "pcyclo_div", "pmul", "padd")
COUNTS = ("ring_terms", "den_degree_max", "lfactor_calls", "lfactor_hits",
          "invariant_hits")


def pvcalc_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "pvcalc"
                                  or name.startswith("pvcalc."))]


def lru_caches(modules):
    """Every functools cache bound in the given modules, once each."""
    found = {}
    for mod in modules:
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and \
                    callable(getattr(obj, "cache_info", None)):
                found[id(obj)] = obj
    return list(found.values())


def _rebind(orig, wrapper, skip_prefix=None):
    for mod in pvcalc_modules():
        if skip_prefix and mod.__name__.startswith(skip_prefix):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []
        self.stack = []
        self.kernel = {op: [0, 0.0, 0, 0] for op in KERNEL_OPS}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.hidden = 0.0       # bookkeeping time kept out of the spans
        self._motring_caches = []

    # ---- recording

    def reset(self):
        self.spans = []
        self.stack = []
        for rec in self.kernel.values():
            rec[:] = [0, 0.0, 0, 0]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.hidden = 0.0

    def clock(self):
        return perf_counter() - self.hidden

    def _span(self, name, fn, before=None):
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            if before is not None:
                t0 = perf_counter()
                args = before(args)
                tr.hidden += perf_counter() - t0
            stack = tr.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(tr.spans))
            tr.spans.append(rec)
            rec[1] = tr.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = tr.clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _kernel_op(self, fn, rec):
        tr = self

        def wrapper(*args):
            if not tr.active:
                return fn(*args)
            t0 = perf_counter()
            result = fn(*args)
            rec[1] += perf_counter() - t0
            rec[0] += 1
            if result is not None:
                rec[2] += len(result)
                rec[3] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        import pvcalc._kernel as kernel
        import pvcalc.motring as motring
        import pvcalc.pvint as pvint

        self.reset()
        for op in KERNEL_OPS:
            orig = getattr(kernel, op)
            _rebind(orig, self._kernel_op(orig, self.kernel[op]),
                    skip_prefix="pvcalc._kernel.")

        self._motring_caches = lru_caches([motring])
        info = getattr(pvint.invariant_sum, "cache_info", None)

        def ring_terms(args):
            # count the terms and the degree in w of their common
            # denominator: the largest w-power times the lcm, by
            # multiplicity, of the (w^k - 1) factors
            terms = list(args[0])
            self.counts["ring_terms"] += len(terms)
            union = Counter()
            for t in terms:
                union |= Counter(getattr(t, "cyclo", ()))
            deg = max((getattr(t, "wpow", 0) for t in terms), default=0)
            deg += sum(k * n for k, n in union.items())
            if deg > self.counts["den_degree_max"]:
                self.counts["den_degree_max"] = deg
            return (terms,) + tuple(args[1:])

        for name, modname, attr in SPANS:
            orig = getattr(sys.modules[modname], attr)
            before = ring_terms if name == "motring.ring_sum" else None
            target = orig
            if name == "pvint.invariant_sum" and info is not None:
                target = self._count_hits(orig, info, "invariant_hits")
            _rebind(orig, self._span(name, target, before))

        lfactor = motring.lfactor
        _rebind(lfactor, self._count_lfactor(lfactor))

        mul = motring.RingElem.__mul__
        traced_mul = self._span("motring.mul", mul)
        motring.RingElem.__mul__ = traced_mul
        if motring.RingElem.__rmul__ is mul:
            motring.RingElem.__rmul__ = traced_mul

    def _count_hits(self, fn, info, key):
        tr = self

        def wrapper(*args):
            if not tr.active:
                return fn(*args)
            t0 = perf_counter()
            hits = info().hits
            t1 = perf_counter()
            result = fn(*args)
            t2 = perf_counter()
            tr.counts[key] += info().hits - hits
            tr.hidden += (t1 - t0) + (perf_counter() - t2)
            return result

        return wrapper

    def _count_lfactor(self, fn):
        tr = self

        def wrapper(*args):
            if not tr.active:
                return fn(*args)
            t0 = perf_counter()
            hits = sum(c.cache_info().hits for c in tr._motring_caches)
            t1 = perf_counter()
            result = fn(*args)
            t2 = perf_counter()
            tr.counts["lfactor_calls"] += 1
            tr.counts["lfactor_hits"] += sum(
                c.cache_info().hits for c in tr._motring_caches) - hits
            tr.hidden += (t1 - t0) + (perf_counter() - t2)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ---- summary

    def summary(self, ops):
        """Per-layer metrics of everything recorded since reset()."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg = {}
        for i, (name, t0, t1, parent) in enumerate(spans):
            a = agg.setdefault(name, [0, 0.0, 0.0])
            a[0] += 1
            a[2] += (t1 - t0) - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:           # outermost span of this name
                a[1] += t1 - t0
        out = {}
        for op, (calls, secs, terms, nonnull) in self.kernel.items():
            out[f"kernel.{op}.calls"] = calls
            out[f"kernel.{op}.s"] = secs
        div = self.kernel["pcyclo_div"]
        out["kernel.pcyclo_div.success_ratio"] = (div[3] / div[0]
                                                  if div[0] else 0.0)
        out["kernel.terms_out"] = sum(r[2] for r in self.kernel.values())
        names = [n for n, _, _ in SPANS] + ["motring.mul"]
        for name in names:
            calls, secs, self_s = agg.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = secs
            out[f"{name}.self_s"] = self_s
        c = self.counts
        out["motring.ring_sum.terms"] = c["ring_terms"]
        out["motring.ring_sum.den_degree_max"] = c["den_degree_max"]
        out["motring.lfactor.calls"] = c["lfactor_calls"]
        out["motring.lfactor.cache_hit_ratio"] = (
            c["lfactor_hits"] / c["lfactor_calls"] if c["lfactor_calls"]
            else 0.0)
        out["motring.realize.s"] = (out["motring.euler_realize.s"]
                                    + out["motring.numeric_eval.s"])
        out["surface.validate.per_op"] = (out["surface.validate.calls"] / ops
                                          if ops else 0.0)
        calls = out["pvint.invariant_sum.calls"]
        out["pvint.invariant_sum.cache_hit_ratio"] = (
            c["invariant_hits"] / calls if calls else 0.0)
        return out

    def dump(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
