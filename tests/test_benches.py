"""Smoke tests of the benches: a bench that times from cold must clear
what pvcalc keeps on the objects it sums, not only the module caches,
or it times a lookup; the residue bench must still run the workload's
op and count what one op builds; every bench that builds the
blow-up chain must build the tests' chain_config; and the stored-form
dump must print one line per result."""

import os
import sys

from pvcalc.models import random_config
from pvcalc.motring import render
from pvcalc.pvint import invariant_sum
from pvcalc.surface import Config, validate

from oracles import chain_config

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benches"))

import bench_delta  # noqa: E402  (benches/, on the path above)
import bench_moves  # noqa: E402
import bench_residue  # noqa: E402
import bench_ring  # noqa: E402
import bench_validate  # noqa: E402
import dump_forms  # noqa: E402
import workloads  # noqa: E402  (perfbench's, on the path caches puts it)


def test_bench_ring_sums_from_cold():
    cfg = chain_config(10)
    want = bench_ring.stored(invariant_sum(cfg))
    stages, staged = bench_ring.stage_times(cfg, repeat=1)
    assert set(stages) == set(bench_ring.STAGES)
    assert bench_ring.stored(staged) == want
    assert bench_ring.stored(invariant_sum(cfg)) == want
    counts = bench_ring.kernel_counts(cfg)
    assert counts["kernel_calls"] > 0 and counts["terms_out"] > 0
    # the chain's sum runs packed: no dict kernel op lifts it
    assert counts["packed_calls"] == counts["kernel_calls"]
    sums, summed = bench_ring.sum_times(cfg, repeat=1)
    assert set(sums) == set(bench_ring.SUMS)
    assert bench_ring.stored(summed) == want


def test_bench_ring_nonzero_chain_meets_its_closed_form():
    [(cfg, closed, steps)] = bench_ring.nonzero_checkpoints(3, (40,)).values()
    assert len(cfg.curves) > 40 and steps > 0 and not closed.is_zero()
    assert invariant_sum(cfg) == closed


def test_bench_ring_clears_every_derived_view():
    cfg = chain_config(10)
    validate(cfg)
    invariant_sum(cfg)
    cfg._connected, cfg._open, cfg._chi
    assert set(cfg.__dict__) > set(Config._fields)
    bench_ring.clear_caches(cfg)
    assert list(cfg.__dict__) == list(Config._fields)


def test_bench_residue_runs_the_tiny_workload():
    work = workloads.build("residue", 1, tiny=True)
    work.prepare()
    seconds = bench_residue.timed_pass(work)
    assert set(seconds) == set(bench_residue.CALLS)
    assert all(s >= 0 for s in seconds.values())
    # one induced Config and one ZMotDatum per op
    assert bench_residue.builds_per_op(work) == {"config": 1, "zmot": 1}


def test_bench_chains_are_chain_config():
    want = chain_config(40)
    assert bench_ring.chain_checkpoints is bench_delta.chain_checkpoints
    assert bench_delta.chain_checkpoints((20, 40)) == {
        20: chain_config(20), 40: want}
    made, seconds = bench_validate.build_chain((40,))
    assert len(made) == 40 and made[-1] == want and list(seconds) == [40]
    [(step, cfg, build_s)] = bench_moves.checkpoints((40,))
    assert step == 40 and cfg == want and build_s > 0


def test_dump_forms_prints_one_line_per_result():
    lines = [dump_forms.line(*result) for result in dump_forms.results(
        sum_seeds=range(2), delta_seeds=range(1), chain=(5,), nonzero=(5,),
        residue_seeds=(1,), tiny=True)]
    fields = [line.split("\t") for line in lines]
    assert all(len(f) == 5 for f in fields)
    labels = [f[0] for f in fields]
    assert len(set(labels)) == len(labels)
    kinds = {label.split()[0] for label in labels}
    assert kinds == {"sum", "delta", "chain", "nonzero", "closed", "residue",
                     "substitution"}
    x = invariant_sum(random_config(1, max_blowups=10))
    assert fields[1] == ["sum 1", str(sorted(x.num.items())), str(x.wpow),
                         str(x.cyclo), render(x)]
    # each nonzero chain's invariant meets its closed form, byte for byte
    forms = dict(zip(labels, (f[1:] for f in fields)))
    for label in labels:
        if label.startswith("nonzero"):
            assert forms[label] == forms[label.replace("nonzero", "closed")]
