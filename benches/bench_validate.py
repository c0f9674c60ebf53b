"""Benchmark: the cost of validating blown-up configurations, which
blow_up now derives from its valid input instead of computing.

Sweep: one pass of invariance_delta over bench_delta's sweep pairs
(random_config(s, max_blowups=10) for s in 0..39, every candidate center
plus free()), on fresh Config objects with the caches cleared; best of
3 passes.

Chain: random_config(3) blown up 640 times at non-exceptional on-divisor
centers drawn with random.Random(1), bench_delta's chain; the time from
the base to 40, 80, 160, 320 and 640 blow-ups, best of 3 builds.

Outside the timed regions, every blown-up Config of both is checked:
the findings validate returns for it equal those _compute_findings
computes for an equal, fresh Config.

Run:  PYTHONPATH=src python3 benches/bench_validate.py [--out BENCH_validate.json]
"""

import argparse
import json
import os
import platform
import time

from bench_delta import (CHECKPOINTS, REPEAT, SWEEP_SEEDS, chain,
                         clear_caches, fresh, sweep_pairs, time_sweep)

import pvcalc._kernel as kernel
from pvcalc.birational import blow_up, invariance_delta
from pvcalc.surface import _compute_findings, validate


def check_findings(configs):
    """Raise unless each config's findings are those of a full validation."""
    for cfg in configs:
        if validate(cfg).findings != list(_compute_findings(fresh(cfg))):
            raise SystemExit("stored findings differ from a full validation")
    return len(configs)


def build_chain(checkpoints=CHECKPOINTS):
    """bench_delta's chain's Configs in order, up to the last of the
    ascending checkpoints, and the seconds taken from its base to reach
    each checkpoint."""
    steps = chain(checkpoints[-1])
    made, seconds = [], {}
    t0 = time.perf_counter()
    for step, cfg in steps:
        made.append(cfg)
        if step in checkpoints:
            seconds[step] = time.perf_counter() - t0
    return made, seconds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="BENCH_validate.json")
    args = ap.parse_args()

    pairs = sweep_pairs()
    pass_s, _ = time_sweep(pairs, invariance_delta)
    checked = check_findings([blow_up(cfg, c) for cfg, c in pairs])
    sweep = {"configs": len(SWEEP_SEEDS), "deltas": len(pairs),
             "pass_s": pass_s}
    print(f"sweep  {len(pairs)} deltas  {pass_s:.3f} s per pass")

    best = dict.fromkeys(CHECKPOINTS, float("inf"))
    for _ in range(REPEAT):
        clear_caches()
        made, seconds = build_chain()
        for step, s in seconds.items():
            best[step] = min(best[step], s)
    checked += check_findings(made)
    rows = [{"blowups": step, "build_s": s} for step, s in best.items()]
    for row in rows:
        print(f"chain {row['blowups']:>4} blow-ups  {row['build_s']:.4f} s")

    report = {
        "bench": "validating blown-up configurations: invariance_delta "
                 "sweep pass and blow-up chain build",
        "timing": f"best of {REPEAT}, caches cleared before each sweep "
                  "pass and each chain build",
        "kernel": kernel.IMPL_NAME,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "findings_checked": checked,
        "sweep": sweep,
        "chain": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
