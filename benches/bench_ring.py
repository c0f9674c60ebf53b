"""Benchmark: the one-pass stratum sum (pvint.stratum_sum) against the
term path (ring_sum of stratum_terms) on long blow-up chains, and the
sums of one pass of the chain, sweep and residue workloads.

The zero chain: random_config(3) blown up 160 times at non-exceptional
on-divisor centers drawn with random.Random(1), by bench_delta's
chain_checkpoints.  After 40, 80 and 160 blow-ups it times
invariant_sum (best of 3, caches cleared before each call), the two
sums of its strata from cold (stratum_sum and the term path taking
turns, best of 3 each, after one untimed walk), and invariant_sum's stages on their own
(best of 3 each, from cold): the exponent table, the walk over the
strata and curves, and the sum.  In one separate untimed call it counts
the kernel work: calls of the dict kernel ops and of the packed ones
(kpack, klift, kunpack, kcount), pcyclo_mul calls among them, and the
monomials that the dict-valued ones put out.

The nonzero chains: random_config(3) and random_config(11) blown up 320
times, at an exceptional center with probability 0.2 when the
configuration has one (drawn with random.Random(7)) and otherwise at a
non-exceptional one.  Blow-up theory gives the invariant as the sum of
exceptional_delta(a, d) over the patterns drawn; at 80, 160 and 320
blow-ups both sums are timed as above and checked against that closed
form.

Both sums must store the same result everywhere.  Last, it captures the
inputs of every ring_sum and stratum_sum call in one pass of the
perfbench chain, sweep and residue workloads (seed 1) and times each
function over its captured calls (best of 20, caches cleared before
each repetition).

Run:  PYTHONPATH=src python3 benches/bench_ring.py [--out BENCH_ring.json]
"""

import argparse
import json
import os
import platform
import random
import sys
import time

import pvcalc._kernel as kernel
import pvcalc.motring as motring
import pvcalc.pvint as pvint
import pvcalc.surface as surface
from pvcalc.birational import (blow_up, exceptional_alphas,
                               exceptional_delta, is_exceptional_center)
from pvcalc.models import candidate_centers, random_config
from pvcalc.pvint import invariant_sum

import caches
from bench_delta import chain_checkpoints

CHECKPOINTS = (40, 80, 160)
NONZERO_BASES = (3, 11)
NONZERO_CHECKPOINTS = (80, 160, 320)
EXCEPTIONAL_RATE = 0.2
DICT_OPS = ("pcyclo_mul", "pcyclo_div", "pmul", "padd")
PACKED_OPS = ("kpack", "klift", "kunpack", "kcount")
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


STAGES = ("exponents", "walk", "sum")


def stored(x):
    return list(x.num.items()), x.wpow, x.cyclo


def walk(cfg):
    """invariant_sum's (strata, curves) of cfg."""
    ex = cfg.exponents
    strata = [(tuple(ex[i] for i in ids), h)
              for ids, h in surface.strata(cfg)]
    return strata, pvint.curve_data(cfg, [i for i, m in ex.items() if not m])


def stage_times(cfg, repeat=3):
    """Seconds of each stage of invariant_sum, best of repeat passes
    from cold (the exponent table, the strata and curve data, and
    their stratum_sum), and the staged sum.  The stages redo
    invariant_sum's body, so the sum must be its stored result."""
    best = dict.fromkeys(STAGES, float("inf"))
    for _ in range(repeat):
        clear_caches(cfg)
        t0 = time.perf_counter()
        cfg.exponents
        t1 = time.perf_counter()
        strata, curves = walk(cfg)
        t2 = time.perf_counter()
        result = pvint.stratum_sum(strata, curves, cfg.d)
        t3 = time.perf_counter()
        for name, seconds in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2)):
            best[name] = min(best[name], seconds)
    return best, result


def term_path(strata, curves, d):
    return motring.ring_sum(pvint.stratum_terms(strata, curves, d), d)


SUMS = {"stratum_sum": pvint.stratum_sum, "term_path": term_path}


def sum_times(cfg, repeat=3):
    """{name: seconds} of stratum_sum and the term path over cfg's
    strata, each best of repeat cold calls, the two taking turns, and
    their one result; they must store the same result."""
    strata, curves = walk(cfg)
    best, results = {}, {}
    for _ in range(repeat):
        for name, fn in SUMS.items():
            caches.clear_caches()
            t0 = time.perf_counter()
            results[name] = fn(strata, curves, cfg.d)
            seconds = time.perf_counter() - t0
            best[name] = min(best.get(name, seconds), seconds)
    if stored(results["stratum_sum"]) != stored(results["term_path"]):
        raise SystemExit("stratum_sum differs from the term path")
    return best, results["stratum_sum"]


def kernel_counts(cfg):
    """Kernel op calls (dict and packed), pcyclo_mul calls, packed op
    calls and the monomials that the ops put out, in one invariant_sum:
    a dict's terms, or the nonzero digits of a packed numerator that
    kpack or klift returns."""
    counts = {"kernel_calls": 0, "pcyclo_mul_calls": 0, "packed_calls": 0,
              "terms_out": 0}
    originals = {op: getattr(kernel, op) for op in DICT_OPS + PACKED_OPS}
    digit_bytes = {"kpack": lambda args: args[1],
                   "klift": lambda args: args[4] // 8}

    def counting(op, fn):
        def wrapper(*args):
            result = fn(*args)
            counts["kernel_calls"] += 1
            if op == "pcyclo_mul":
                counts["pcyclo_mul_calls"] += 1
            if op in PACKED_OPS:
                counts["packed_calls"] += 1
            if isinstance(result, dict):
                counts["terms_out"] += len(result)
            elif op in digit_bytes:
                counts["terms_out"] += originals["kcount"](
                    result, digit_bytes[op](args))
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


def nonzero_checkpoints(base, checkpoints=NONZERO_CHECKPOINTS):
    """{blow-ups: (Config, closed form, exceptional steps)} along the
    nonzero chain from random_config(base): at each step an exceptional
    center with probability EXCEPTIONAL_RATE when there is one, drawn
    with random.Random(7), and otherwise a non-exceptional one.  The
    closed form sums exceptional_delta(a, d) over the patterns drawn,
    as random_config's invariant is zero."""
    rng = random.Random(7)
    cfg = random_config(base)
    deltas, out = [], {}
    for step in range(1, checkpoints[-1] + 1):
        centers = candidate_centers(cfg)
        special = [c for c in centers if is_exceptional_center(cfg, c)]
        if special and rng.random() < EXCEPTIONAL_RATE:
            center = rng.choice(special)
            deltas.append(exceptional_delta(
                exceptional_alphas(cfg, center)[0], cfg.d))
        else:
            center = rng.choice([c for c in centers if c not in special])
        cfg = blow_up(cfg, center)
        if step in checkpoints:
            out[step] = (cfg, motring.ring_sum(deltas, cfg.d), len(deltas))
    return out


def pass_sums(name):
    """{function: [args of each call]} of every ring_sum and stratum_sum
    call in one pass of a perfbench workload's ops at seed 1."""
    import workloads            # perfbench's, on the path caches puts it

    work = workloads.build(name, 1)
    work.prepare()
    calls = {"ring_sum": [], "stratum_sum": []}
    real = {"ring_sum": motring.ring_sum, "stratum_sum": pvint.stratum_sum}

    depth = [0]

    def capturing(fn, seen):
        # a call made inside another captured one (stratum_sum's
        # ring_sum of terms) is timed as part of it
        def capture(first, *rest):
            first = list(first)
            if not depth[0]:
                seen.append((first,) + rest)
            depth[0] += 1
            try:
                return fn(first, *rest)
            finally:
                depth[0] -= 1
        return capture

    # pvcalc modules import both by name: rebind them in every module
    modules = [m for n, m in sys.modules.items()
               if m is not None and n.split(".")[0] == "pvcalc"]
    bound = [(m, k, fn) for m in modules for k, v in vars(m).items()
             for name, fn in real.items() if v is fn]
    names = {fn: name for name, fn in real.items()}
    for m, k, fn in bound:
        setattr(m, k, capturing(fn, calls[names[fn]]))
    try:
        caches.clear_caches()
        for op, _ in work.pass_ops():
            op()
    finally:
        for m, k, fn in bound:
            setattr(m, k, fn)
    return calls


def time_calls(fn, calls, repeat=20):
    best = None
    for _ in range(repeat):
        caches.clear_caches()
        t0 = time.perf_counter()
        for args in calls:
            fn(*args)
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
        sums, summed = sum_times(cfg)
        if not stored(staged) == stored(summed) == stored(result):
            raise SystemExit("the staged sum differs from invariant_sum")
        row = {"blowups": blowups, "curves": len(cfg.curves),
               "invariant_sum_s": seconds, "is_zero": result.is_zero(),
               **{f"{name}_s": t for name, t in sums.items()},
               **kernel_counts(cfg), "stages_s": stages}
        rows.append(row)
        print(f"{blowups:>4} blow-ups  {row['curves']:>4} curves  "
              f"invariant_sum {seconds * 1e3:8.3f} ms  stratum_sum "
              f"{sums['stratum_sum'] * 1e3:8.3f} ms  term path "
              f"{sums['term_path'] * 1e3:8.3f} ms  zero {row['is_zero']}")
        print(f"      kernel calls {row['kernel_calls']:>6}  packed "
              f"{row['packed_calls']:>6}  pcyclo_mul "
              f"{row['pcyclo_mul_calls']:>6}  monomials out "
              f"{row['terms_out']:>7}  stages  " + "  ".join(
                  f"{name} {stages[name] * 1e3:.3f} ms" for name in STAGES))

    nonzero_rows = []
    for base in NONZERO_BASES:
        for blowups, (cfg, closed, steps) in nonzero_checkpoints(
                base).items():
            sums, summed = sum_times(cfg)
            if summed != closed:
                raise SystemExit("an invariant differs from its closed form")
            row = {"base": base, "blowups": blowups,
                   "curves": len(cfg.curves), "exceptional_steps": steps,
                   **{f"{name}_s": t for name, t in sums.items()}}
            nonzero_rows.append(row)
            print(f"base {base:>2}  {blowups:>4} blow-ups  {steps:>3} "
                  f"exceptional  stratum_sum {sums['stratum_sum'] * 1e3:9.3f}"
                  f" ms  term path {sums['term_path'] * 1e3:9.3f} ms")

    pass_rows = []
    for name in PASS_SUM_WORKLOADS:
        calls = pass_sums(name)
        row = {"workload": name}
        for fn_name, fn in (("ring_sum", motring.ring_sum),
                            ("stratum_sum", pvint.stratum_sum)):
            row[f"{fn_name}_calls"] = len(calls[fn_name])
            row[f"{fn_name}_s"] = time_calls(fn, calls[fn_name])
        pass_rows.append(row)
        print(f"{name:>8} pass  ring_sum {row['ring_sum_calls']:>5} calls "
              f"{row['ring_sum_s'] * 1e3:8.2f} ms  stratum_sum "
              f"{row['stratum_sum_calls']:>4} calls "
              f"{row['stratum_sum_s'] * 1e3:8.2f} ms")

    report = {
        "bench": "stratum_sum against the term path on blow-up chains",
        "chain": "random_config(3), non-exceptional on-divisor blow-ups "
                 "drawn with random.Random(1)",
        "nonzero_chains": f"random_config(base) for base in "
                          f"{list(NONZERO_BASES)}, an exceptional center "
                          f"at rate {EXCEPTIONAL_RATE} when there is one, "
                          "drawn with random.Random(7); checked against "
                          "the closed form",
        "timing": "best of 3, caches cleared before each call",
        "stages": "stages_s: invariant_sum's stages timed apart, best of 3 "
                  "from cold: " + ", ".join(STAGES),
        "kernel": kernel.IMPL_NAME,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "rows": rows,
        "nonzero_rows": nonzero_rows,
        "pass_sums": "ring_sum and stratum_sum alone over the calls captured "
                     "in one pass of perfbench's chain, sweep and residue "
                     "workloads, seed 1, best of 20, caches cleared before "
                     "each repetition",
        "pass_rows": pass_rows,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
