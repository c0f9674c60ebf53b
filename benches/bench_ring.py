"""Benchmark: the stratum sum (ring_sum) on one long blow-up chain, and
ring_sum alone on the sums of the chain, sweep and residue workloads.

Builds random_config(3) and blows it up 160 times at non-exceptional
on-divisor centers drawn with random.Random(1), by bench_delta's
chain_checkpoints.  After 40, 80 and 160 blow-ups it times
invariant_sum (best of 3, caches cleared before each call) and, in one
separate untimed call, counts the kernel work:
calls of the dict kernel ops, pcyclo_mul calls among them, and the
monomials that they put out.  It also times invariant_sum's stages on
their own (best of 3 each, from cold): the exponent table, the walk
over the strata and curves, the stratum terms and the ring_sum of them.

Then it captures the inputs of every ring_sum call in one pass of the
perfbench chain, sweep and residue workloads (seed 1) and times
ring_sum over each captured list (best of 20).  Chain's are its four
large stratum sums; sweep's and residue's are many sums of a few
terms, the traffic that packing the numerators must not slow down.

Run:  PYTHONPATH=src python3 benches/bench_ring.py [--out BENCH_ring.json]
"""

import argparse
import json
import os
import platform
import sys
import time

import pvcalc._kernel as kernel
import pvcalc.motring as motring
import pvcalc.pvint as pvint
import pvcalc.surface as surface
from pvcalc.pvint import invariant_sum

import caches
from bench_delta import chain_checkpoints

CHECKPOINTS = (40, 80, 160)
COUNTED_OPS = ("pcyclo_mul", "pcyclo_div", "pmul", "padd")
PASS_SUM_WORKLOADS = ("chain", "sweep", "residue")


def clear_caches(cfg):
    """Clear every pvcalc cache and everything cfg holds beside its
    fields (its derived views, findings and invariant, whatever their
    names), so each timed call sums from cold."""
    caches.clear_caches()
    for key in [k for k in cfg.__dict__ if k not in surface.Config._fields]:
        del cfg.__dict__[key]


def best_time(cfg, repeat=3):
    best = None
    for _ in range(repeat):
        clear_caches(cfg)
        t0 = time.perf_counter()
        result = invariant_sum(cfg)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


STAGES = ("exponents", "walk", "terms", "sum")


def stored(x):
    return list(x.num.items()), x.wpow, x.cyclo


def stage_times(cfg, repeat=3):
    """Seconds of each stage of invariant_sum, best of repeat passes
    from cold (the exponent table, the strata and curve data, the
    stratum terms and their ring_sum), and the staged sum.  The stages
    redo invariant_sum's body, so the sum must be its stored result."""
    best = dict.fromkeys(STAGES, float("inf"))
    for _ in range(repeat):
        clear_caches(cfg)
        t0 = time.perf_counter()
        ex = cfg.exponents
        t1 = time.perf_counter()
        strata = [(tuple(ex[i] for i in ids), h)
                  for ids, h in surface.strata(cfg)]
        curves = pvint.curve_data(cfg, [i for i, m in ex.items() if not m])
        t2 = time.perf_counter()
        terms = pvint.stratum_terms(strata, curves, cfg.d)
        t3 = time.perf_counter()
        result = motring.ring_sum(terms, cfg.d)
        t4 = time.perf_counter()
        for name, seconds in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2,
                                          t4 - t3)):
            best[name] = min(best[name], seconds)
    return best, result


def kernel_counts(cfg):
    """Dict kernel op calls, pcyclo_mul calls and kernel output
    monomials of one invariant_sum."""
    counts = {"kernel_calls": 0, "pcyclo_mul_calls": 0, "terms_out": 0}
    originals = {op: getattr(kernel, op) for op in COUNTED_OPS}

    def counting(op, fn):
        def wrapper(*args):
            result = fn(*args)
            counts["kernel_calls"] += 1
            if op == "pcyclo_mul":
                counts["pcyclo_mul_calls"] += 1
            if result is not None:
                counts["terms_out"] += len(result)
            return result
        return wrapper

    # motring calls the kernel through the module, so rebinding the
    # module attributes reaches every call
    for op, fn in originals.items():
        setattr(kernel, op, counting(op, fn))
    try:
        clear_caches(cfg)
        invariant_sum(cfg)
    finally:
        for op, fn in originals.items():
            setattr(kernel, op, fn)
    return counts


def pass_sums(name):
    """(terms, d) of every ring_sum call in one pass of a perfbench
    workload's ops at seed 1."""
    import workloads            # perfbench's, on the path caches puts it

    work = workloads.build(name, 1)
    work.prepare()
    real, sums = motring.ring_sum, []

    def capture(terms, d=None):
        terms = list(terms)
        sums.append((terms, d))
        return real(terms, d)

    # birational, pvint and zeta import ring_sum by name: rebind it in
    # every pvcalc module
    modules = [m for n, m in sys.modules.items()
               if m is not None and n.split(".")[0] == "pvcalc"]
    bound = [(m, k) for m in modules for k, v in vars(m).items() if v is real]
    for m, k in bound:
        setattr(m, k, capture)
    try:
        for op, _ in work.pass_ops():
            op()
    finally:
        for m, k in bound:
            setattr(m, k, real)
    return sums


def time_sums(sums, repeat=20):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        for terms, d in sums:
            motring.ring_sum(terms, d)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="BENCH_ring.json")
    args = ap.parse_args()

    rows = []
    for blowups, cfg in chain_checkpoints(CHECKPOINTS).items():
        seconds, result = best_time(cfg)
        stages, staged = stage_times(cfg)
        if stored(staged) != stored(result):
            raise SystemExit("the staged sum differs from invariant_sum")
        row = {"blowups": blowups, "curves": len(cfg.curves),
               "invariant_sum_s": seconds, "is_zero": result.is_zero(),
               **kernel_counts(cfg),
               "stages_s": stages}
        rows.append(row)
        print(f"{blowups:>4} blow-ups  {row['curves']:>4} curves  "
              f"{seconds:9.4f} s  kernel calls {row['kernel_calls']:>7}  "
              f"pcyclo_mul {row['pcyclo_mul_calls']:>7}  "
              f"monomials out {row['terms_out']:>9}  zero {row['is_zero']}")
        print("      stages  " + "  ".join(
            f"{name} {stages[name] * 1e3:.3f} ms" for name in STAGES))

    pass_rows = []
    for name in PASS_SUM_WORKLOADS:
        sums = pass_sums(name)
        row = {"workload": name, "sums": len(sums),
               "terms": sum(len(terms) for terms, _ in sums),
               "ring_sum_s": time_sums(sums)}
        pass_rows.append(row)
        print(f"{name:>8} pass  {row['sums']:>5} sums  {row['terms']:>6} "
              f"terms  ring_sum {row['ring_sum_s'] * 1e3:8.2f} ms")

    report = {
        "bench": "ring_sum via invariant_sum on a blow-up chain",
        "chain": "random_config(3), non-exceptional on-divisor blow-ups "
                 "drawn with random.Random(1)",
        "timing": "best of 3, caches cleared before each call",
        "stages": "stages_s: invariant_sum's stages timed apart, best of 3 "
                  "from cold: " + ", ".join(STAGES),
        "kernel": kernel.IMPL_NAME,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "rows": rows,
        "pass_sums": "ring_sum alone over the captured sums of one pass "
                     "of perfbench's chain, sweep and residue workloads, "
                     "seed 1, best of 20",
        "pass_rows": pass_rows,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
