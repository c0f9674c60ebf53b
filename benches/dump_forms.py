"""Print the stored form of a fixed set of results, one line each, so
that the output of two checkouts can be compared with diff or cmp.

A line is a label, then the result's sorted(num.items()), wpow, cyclo
and render, tab-separated, or the label and the error it raised.  The
numerator is printed sorted, so a line does not depend on the key
order of the stored dict.  The script calls only pvcalc functions and
bench helpers that predate it, so it runs unchanged on older checkouts
that have those helpers: copy it into their benches/ directory.

The results, in this order:
- invariant_sum(random_config(s, max_blowups=10)) for s < 200;
- invariance_delta at every candidate center, and at free(), of
  random_config(s, max_blowups=10) for s < 40 (bench_delta's sweep);
- invariant_sum at bench_delta's chain checkpoints, and invariant_sum
  and the closed form at bench_ring's nonzero checkpoints;
- residue_contribution, and residue_via_substitution at d = 1, 2 and 3,
  of every datum of the perfbench residue workload at bench_residue's
  seeds.

Run:  PYTHONPATH=src python3 benches/dump_forms.py > forms.txt
"""

from pvcalc.birational import free, invariance_delta
from pvcalc.errors import PvError
from pvcalc.models import candidate_centers, random_config
from pvcalc.motring import render
from pvcalc.pvint import invariant_sum
from pvcalc.zeta import (residue_contribution, residue_via_substitution,
                         zmot_contribution, zmot_from_surface)

import bench_delta
import bench_residue
import bench_ring
import workloads            # perfbench's, on the path caches puts it

SUM_SEEDS = range(200)
DELTA_SEEDS = range(40)
SUBSTITUTION_DS = (1, 2, 3)


def results(sum_seeds=SUM_SEEDS, delta_seeds=DELTA_SEEDS,
            chain=bench_delta.CHECKPOINTS,
            nonzero=bench_ring.NONZERO_CHECKPOINTS,
            residue_seeds=bench_residue.SEEDS, tiny=False):
    """(label, thunk) for each result; tiny takes the tiny residue
    workload."""
    for s in sum_seeds:
        cfg = random_config(s, max_blowups=10)
        yield f"sum {s}", lambda cfg=cfg: invariant_sum(cfg)
    for s in delta_seeds:
        cfg = random_config(s, max_blowups=10)
        for i, c in enumerate(candidate_centers(cfg) + [free()]):
            yield (f"delta {s} {i}",
                   lambda cfg=cfg, c=c: invariance_delta(cfg, c))
    if chain:
        for step, cfg in bench_delta.chain_checkpoints(chain).items():
            yield f"chain {step}", lambda cfg=cfg: invariant_sum(cfg)
    for base in bench_ring.NONZERO_BASES if nonzero else ():
        for step, (cfg, closed, _) in bench_ring.nonzero_checkpoints(
                base, nonzero).items():
            yield f"nonzero {base} {step}", lambda cfg=cfg: invariant_sum(cfg)
            yield f"closed {base} {step}", lambda closed=closed: closed
    for seed in residue_seeds:
        work = workloads.build("residue", seed, tiny=tiny)
        for i, (datum, _) in enumerate(work.data):
            yield (f"residue {seed} {i}",
                   lambda datum=datum: residue_contribution(datum))
            for d in SUBSTITUTION_DS:
                yield (f"substitution {seed} {i} {d}",
                       lambda datum=datum, d=d: residue_via_substitution(
                           zmot_contribution(zmot_from_surface(datum), "Ej"),
                           "Ej", d))


def line(label, thunk):
    try:
        x = thunk()
    except PvError as exc:
        return f"{label}\t{type(exc).__name__}: {exc}"
    return (f"{label}\t{sorted(x.num.items())}\t{x.wpow}\t{x.cyclo}\t"
            f"{render(x)}")


def main():
    for label, thunk in results():
        print(line(label, thunk))


if __name__ == "__main__":
    main()
