"""Benchmark: where one pass of the perfbench residue workload spends
its time, call by call.

A residue op calls residue_contribution, pole_report,
zmot_from_surface (then zmot_contribution) and residue_via_substitution
on one surface resolution datum, then realizes R.  For seeds 1 and
20261017 this times each of those calls on its own over one pass of
every datum, with every pvcalc cache cleared before the pass, and keeps
the best of REPEAT passes per call.  A separate untimed pass counts the
Configs and the ZMotDatums built per op, by wrapping their __init__.
Every op's result is checked against the workload's oracle.

Run:  PYTHONPATH=src python3 benches/bench_residue.py [--out BENCH_residue.json]
"""

import argparse
import json
import os
import platform
import time

import pvcalc._kernel as kernel
import pvcalc.motring as motring
import pvcalc.surface as surface
import pvcalc.zeta as zeta

from caches import clear_caches
import workloads            # perfbench's, on the path caches puts it

SEEDS = (1, 20261017)
REPEAT = 5
CALLS = ("residue_contribution", "pole_report", "zmot_from_surface",
         "residue_via_substitution", "realize")


def timed_pass(work):
    """Seconds per call over one pass from cold, the calls made as the
    workload's op makes them; checks every op against its oracle."""
    clear_caches()
    seconds = dict.fromkeys(CALLS, 0.0)
    for (datum, _), want in zip(work.data, work.expect):
        q = want["q"]
        t0 = time.perf_counter()
        R = zeta.residue_contribution(datum)
        t1 = time.perf_counter()
        report = zeta.pole_report(datum)
        t2 = time.perf_counter()
        terms = zeta.zmot_contribution(zeta.zmot_from_surface(datum), "Ej")
        t3 = time.perf_counter()
        got = zeta.residue_via_substitution(terms, "Ej")
        t4 = time.perf_counter()
        realized = (motring.euler_realize(R), motring.numeric_eval(R, q),
                    motring.numeric_eval(R, workloads.POINTS_T[0] ** datum.nj))
        t5 = time.perf_counter()
        for name, s in zip(CALLS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3,
                                   t5 - t4)):
            seconds[name] += s
        if not work._check((R, report, got, *realized), datum, want):
            raise SystemExit("a residue op disagrees with its oracle")
    return seconds


BUILT = {"config": surface.Config, "zmot": zeta.ZMotDatum}


def builds_per_op(work):
    """Configs and ZMotDatums built in one pass from cold, per op."""
    built = dict.fromkeys(BUILT, 0)
    inits = {name: cls.__init__ for name, cls in BUILT.items()}

    def counting(name):
        init = inits[name]

        def counting_init(self, *args, **kwargs):
            built[name] += 1
            init(self, *args, **kwargs)
        return counting_init

    clear_caches()
    for name, cls in BUILT.items():
        cls.__init__ = counting(name)
    try:
        for op, _ in work.pass_ops():
            op()
    finally:
        for name, cls in BUILT.items():
            cls.__init__ = inits[name]
    return {name: n / len(work.data) for name, n in built.items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="BENCH_residue.json")
    args = ap.parse_args()

    rows = []
    for seed in SEEDS:
        work = workloads.build("residue", seed)
        work.prepare()
        best = dict.fromkeys(CALLS, float("inf"))
        for _ in range(REPEAT):
            for name, s in timed_pass(work).items():
                best[name] = min(best[name], s)
        built = builds_per_op(work)
        row = {"seed": seed, "ops": len(work.data),
               "ms_per_pass": {k: 1e3 * v for k, v in best.items()},
               "config_builds_per_op": built["config"],
               "zmot_builds_per_op": built["zmot"]}
        rows.append(row)
        print(f"seed {seed:>8}  {row['ops']} ops  " + "  ".join(
            f"{k} {v:.1f}" for k, v in row["ms_per_pass"].items())
            + f" ms  Configs per op {built['config']:g}"
            + f"  ZMotDatums per op {built['zmot']:g}")

    report = {
        "bench": "the perfbench residue workload's op, call by call",
        "timing": f"ms per pass for each call, best of {REPEAT} passes, "
                  "every pvcalc cache cleared before each pass; realize is "
                  "euler_realize and the two numeric_eval calls of R",
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
