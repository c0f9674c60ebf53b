"""Benchmark: invariance_delta from the touched strata against the full
recompute e_invariant(blow_up(config, center)) - e_invariant(config).

Sweep: random_config(s, max_blowups=10) for s in 0..39, every candidate
center plus free(); one pass computes every delta, on fresh Config
objects and after clearing the caches; best of 3 passes.

Chain: random_config(3) blown up 640 times at non-exceptional on-divisor
centers drawn with random.Random(1) by models.blowup_chain (chain(), the
chain every bench builds); at 40, 80, 160, 320 and 640
blow-ups, the first 10 candidate centers, each delta timed on its own
with the caches cleared before it (best of 3).

Every local delta is checked to equal the full one.

Run:  PYTHONPATH=src python3 benches/bench_delta.py [--out BENCH_delta.json]
"""

import argparse
import json
import os
import platform
import random
import time

import pvcalc._kernel as kernel
import pvcalc.surface as surface
from pvcalc.birational import blow_up, free, invariance_delta
from pvcalc.models import blowup_chain, candidate_centers, random_config
from pvcalc.pvint import e_invariant

from caches import clear_caches

SWEEP_SEEDS = range(40)
CHECKPOINTS = (40, 80, 160, 320, 640)
CHAIN_CENTERS = 10
REPEAT = 3


def full_delta(config, center):
    return e_invariant(blow_up(config, center)) - e_invariant(config)


METHODS = {"local": invariance_delta, "full": full_delta}


def check_equal(local, full):
    if any(a != b for a, b in zip(local, full)):
        raise SystemExit("a local delta differs from the full recompute")


def fresh(config):
    """An equal Config with none of the derived views cached on it."""
    return surface.Config(d=config.d, ambient_hodge=config.ambient_hodge,
                          curves=config.curves, points=config.points)


def sweep_pairs():
    pairs = []
    for s in SWEEP_SEEDS:
        cfg = random_config(s, max_blowups=10)
        pairs += [(cfg, c) for c in candidate_centers(cfg) + [free()]]
    return pairs


def time_sweep(pairs, fn):
    """Best of REPEAT passes over every pair; returns (seconds, results)."""
    best = None
    for _ in range(REPEAT):
        clear_caches()
        built = {}
        inputs = [(built.setdefault(id(cfg), fresh(cfg)), c)
                  for cfg, c in pairs]
        t0 = time.perf_counter()
        results = [fn(cfg, c) for cfg, c in inputs]
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, results


def chain(steps):
    """(blow-ups, Config) after each of the chain's first steps
    blow-ups: random_config(3) blown up at non-exceptional on-divisor
    centers drawn with random.Random(1), by models.blowup_chain.  The
    base is built when this is called, the blow-ups as they are read."""
    made = blowup_chain(random_config(3), steps, random.Random(1))
    return enumerate(made, 1)


def chain_checkpoints(checkpoints=CHECKPOINTS):
    """The chain's Config at each of the ascending checkpoints."""
    return {step: cfg for step, cfg in chain(checkpoints[-1])
            if step in checkpoints}


def time_one(cfg, center, fn):
    """Best of REPEAT cold calls; returns (seconds, result)."""
    best = None
    for _ in range(REPEAT):
        clear_caches()
        cfg = fresh(cfg)
        t0 = time.perf_counter()
        result = fn(cfg, center)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="BENCH_delta.json")
    args = ap.parse_args()

    pairs = sweep_pairs()
    sweep = {"configs": len(SWEEP_SEEDS), "deltas": len(pairs)}
    results = {}
    for name, fn in METHODS.items():
        sweep[f"{name}_s"], results[name] = time_sweep(pairs, fn)
    check_equal(results["local"], results["full"])
    sweep["nonzero"] = sum(not x.is_zero() for x in results["full"])
    print(f"sweep  {sweep['deltas']} deltas  local {sweep['local_s']:.3f} s"
          f"  full {sweep['full_s']:.3f} s")

    rows = []
    for blowups, cfg in chain_checkpoints().items():
        row = {"blowups": blowups, "curves": len(cfg.curves),
               "centers": CHAIN_CENTERS}
        for name, fn in METHODS.items():
            total = 0.0
            values = []
            for center in candidate_centers(cfg)[:CHAIN_CENTERS]:
                seconds, value = time_one(cfg, center, fn)
                total += seconds
                values.append(value)
            row[f"{name}_ms_per_delta"] = 1000 * total / CHAIN_CENTERS
            results[name] = values
        check_equal(results["local"], results["full"])
        rows.append(row)
        print(f"chain {blowups:>4} blow-ups  {row['curves']:>4} curves  "
              f"local {row['local_ms_per_delta']:7.2f} ms  "
              f"full {row['full_ms_per_delta']:7.2f} ms per delta")

    report = {
        "bench": "invariance_delta: touched strata against full recompute",
        "timing": f"best of {REPEAT}, caches cleared and Configs rebuilt "
                  "before each sweep pass and each chain delta",
        "kernel": kernel.IMPL_NAME,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "sweep": sweep,
        "chain": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
