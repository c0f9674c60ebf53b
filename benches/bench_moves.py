"""Benchmark: the cost of one move along a long blow-up chain.

Chain: random_config(3) blown up 1280 times at non-exceptional
on-divisor centers drawn with random.Random(1), bench_delta's chain.
At 160, 320, 640 and 1280 blow-ups, on that checkpoint's Config:
- blow_up at each of the first 20 non-exceptional candidate centers;
- blow_down of the new curve of each of those blow-ups;
- the draw models.blowup_chain makes before each step: the positions
  of the exceptional candidates and the choice among the others.
Each move is timed on its own, best of 5; a row gives the median over
the 20 moves, and the draw's best of 5, in milliseconds.

Every Config the chain and the moves make is built the way a user gets
it, through the moves' own views; outside the timed regions each is
checked against an equal, freshly constructed Config: equal value,
findings, candidate centers and exceptional positions, and each
blow-down gives the checkpoint back.

Run:  PYTHONPATH=src python3 benches/bench_moves.py [--out BENCH_moves.json]
"""

import argparse
import json
import os
import platform
import random
import statistics
import time

from bench_delta import chain, fresh

import pvcalc._kernel as kernel
from pvcalc.birational import _exceptional_positions, blow_down, blow_up
from pvcalc.models import _draw, candidate_centers
from pvcalc.surface import _compute_findings, validate

CHECKPOINTS = (160, 320, 640, 1280)
MOVES = 20
REPEAT = 5


def centers(cfg):
    """The candidate centers and the positions of the exceptional
    ones, which a draw reads."""
    return candidate_centers(cfg), _exceptional_positions(cfg)


def checkpoints(steps=CHECKPOINTS):
    """Yield (blow-ups, Config, build_s) at each of the ascending steps
    of the chain, build_s the seconds spent building the chain so far,
    the time the caller takes between checkpoints excluded."""
    made = chain(steps[-1])
    build_s = 0.0
    t0 = time.perf_counter()
    for step, cfg in made:
        if step in steps:
            build_s += time.perf_counter() - t0
            yield step, cfg, build_s
            t0 = time.perf_counter()


def best_ms(fn, *args):
    """fn(*args)'s result and its best time of REPEAT, in ms."""
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return out, best * 1e3


def check(cfg):
    """Raise unless cfg behaves as an equal, fresh Config does."""
    new = fresh(cfg)
    if (cfg != new or validate(cfg).findings != list(_compute_findings(new))
            or centers(cfg) != centers(new)):
        raise SystemExit("a moved Config differs from a fresh build")


def measure(cfg):
    """One row of per-move times at the checkpoint cfg."""
    ups, downs = [], []
    cands, skip = centers(cfg)
    skip = set(skip)
    kept = [c for i, c in enumerate(cands) if i not in skip]
    for center in kept[:MOVES]:
        up, ms = best_ms(blow_up, cfg, center)
        ups.append(ms)
        new_id = (set(up.curve_map) - set(cfg.curve_map)).pop()
        down, ms = best_ms(blow_down, up, new_id)
        downs.append(ms)
        check(up)
        check(down)
        if down != cfg:
            raise SystemExit("a blow-down does not undo its blow-up")
    _, draw_ms = best_ms(_draw, cfg, random.Random(1))
    return {"curves": len(cfg.curves),
            "points": len(cfg.points), "moves": len(ups),
            "blow_up_ms": statistics.median(ups),
            "blow_down_ms": statistics.median(downs),
            "draw_ms": draw_ms}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="BENCH_moves.json")
    args = ap.parse_args()

    rows = []
    for step, cfg, build_s in checkpoints():
        check(cfg)
        row = {"blowups": step, "chain_build_s": build_s, **measure(cfg)}
        rows.append(row)
        print(f"{step:>5} blow-ups  {row['curves']:>5} curves  "
              f"blow_up {row['blow_up_ms']:.3f} ms  "
              f"blow_down {row['blow_down_ms']:.3f} ms  "
              f"draw {row['draw_ms']:.3f} ms  "
              f"chain so far {build_s:.2f} s")

    report = {
        "bench": "per-move cost of blow_up, blow_down and the chain's "
                 "draw along the random_config(3) / random.Random(1) chain",
        "timing": f"each move best of {REPEAT}, median over the first "
                  f"{MOVES} non-exceptional candidate centers; draw best "
                  f"of {REPEAT}; chain_build_s excludes the measurements",
        "kernel": kernel.IMPL_NAME,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
